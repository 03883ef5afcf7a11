// Command acdcd runs the AC/DC vSwitch fabric as a long-lived service: a
// wall-clock-paced simulation with a localhost HTTP admin API for streaming
// live policy updates, scraping metrics, checkpointing and warm-restarting
// vSwitches, and probing health. See internal/daemon for the API surface and
// ARCHITECTURE.md ("Service mode") for the threading model.
//
// Usage:
//
//	acdcd -listen 127.0.0.1:7654 -hosts 4 -scale 0.05
//	acdcd -listen 0.0.0.0:7654 -admin-token $TOKEN
//	acdcd -fabric flap@5ms,link=h0.up,down=1ms,up=10ms,count=100
//
// The daemon binds to loopback by default. A non-loopback bind is refused
// unless -admin-token is set; with a token, every mutating endpoint requires
// `Authorization: Bearer <token>` (read-only probes stay open for health
// checks and metric scrapes). With -fabric, the named fault domains are armed
// on the service topology (star link names are "h<i>.up"/"h<i>.down"; see
// `acdcd -fabric list`) and fabric counters appear in /status and /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acdc/internal/daemon"
	"acdc/internal/sim"
	"acdc/internal/topo"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7654", "admin API listen address (non-loopback requires -admin-token)")
		adminToken  = flag.String("admin-token", "", "bearer token required on mutating admin endpoints (empty = open, loopback only)")
		hosts       = flag.Int("hosts", 4, "star topology size")
		seed        = flag.Int64("seed", 1, "simulation seed")
		scale       = flag.Float64("scale", 0.05, "virtual seconds advanced per wall second")
		maxCatchUp  = flag.Duration("max-catchup", 50*time.Millisecond, "virtual time replayed per advance before lag is forgiven")
		tick        = flag.Duration("tick", 2*time.Millisecond, "wall interval between pacer advances")
		auditSample = flag.Int("audit-sample", 64, "audit 1-in-N packet events (state transitions always checked; <0 disables)")
		workload    = flag.Bool("workload", true, "drive continuous background bulk traffic")
		envFlags    = topo.BindEnv(flag.CommandLine, "fabric", "backend")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "acdcd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	env, help, err := envFlags.Env()
	if err != nil {
		fmt.Fprintf(os.Stderr, "acdcd: %v\n", err)
		os.Exit(2)
	}
	if help != "" {
		fmt.Print(help)
		return
	}

	if *adminToken == "" && !daemon.LoopbackAddr(*listen) {
		fmt.Fprintf(os.Stderr, "acdcd: refusing to bind the unauthenticated admin API to non-loopback %q; set -admin-token or listen on 127.0.0.1\n", *listen)
		os.Exit(2)
	}

	d := daemon.New(daemon.Config{
		Hosts:       *hosts,
		Seed:        *seed,
		Scale:       *scale,
		MaxCatchUp:  sim.Duration(*maxCatchUp),
		Tick:        *tick,
		AuditSample: *auditSample,
		Workload:    *workload,
		Fabric:      env.Fabric,
		Backend:     env.Backend,
		AdminToken:  *adminToken,
	})
	d.Start()

	srv := &http.Server{Addr: *listen, Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	auth := "open (loopback only)"
	if *adminToken != "" {
		auth = "bearer token on mutating endpoints"
	}
	log.Printf("acdcd: serving admin API on http://%s (hosts=%d scale=%g seed=%d, auth: %s)",
		*listen, *hosts, *scale, *seed, auth)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("acdcd: %v, shutting down", sig)
	case err := <-errc:
		log.Printf("acdcd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	d.Stop()
	st := d.StatusNow()
	log.Printf("acdcd: stopped at virtual %s (%d policy updates, %d restarts, degraded=%q)",
		st.SimNow, st.PolicyUpdates, st.Restarts, st.Degraded)
}
