package daemon

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// startDaemon runs a small paced daemon with background traffic and an
// httptest admin server, and tears both down with the test.
func startDaemon(t *testing.T, cfg Config) (*Daemon, *Client) {
	t.Helper()
	if cfg.Hosts == 0 {
		cfg.Hosts = 2
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	d := New(cfg)
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Stop()
	})
	return d, NewClient(srv.URL, nil)
}

// hasFlows reports whether the admin API lists flows on host.
func hasFlows(c *Client, host int) bool {
	flows, err := c.Flows(host)
	return err == nil && len(flows) > 0
}

// waitFor polls cond for up to 2 seconds of wall time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDaemonAdvancesAndServes(t *testing.T) {
	d, c := startDaemon(t, Config{Workload: true})
	if err := c.Health(); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	// The pacer must keep the virtual clock moving with wall time.
	waitFor(t, "virtual time to advance", func() bool {
		st, err := d.StatusNow()
		return err == nil && st.SimNowNanos > int64(10*sim.Millisecond)
	})
	// With the background workload on, flows appear and metrics count.
	waitFor(t, "flows to be tracked", func() bool { return hasFlows(c, -1) })
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"egress_segments_total", "flow_table_size"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.SimNowNanos == 0 || st.Hosts != 2 || st.Degraded != "" {
		t.Fatalf("status = %+v", st)
	}
}

func TestPolicyStreamMixedResults(t *testing.T) {
	d, c := startDaemon(t, Config{Workload: true})
	waitFor(t, "flows", func() bool { return hasFlows(c, 0) })
	flows, _ := c.Flows(0)
	f := flows[0]

	results, err := c.SendPolicies(
		PolicyUpdate{Host: 0, Src: f.Src, Dst: f.Dst, SPort: f.SPort, DPort: f.DPort,
			Beta: 0.5, RwndClampBytes: 1 << 20},
		PolicyUpdate{Host: 0, Src: f.Src, Dst: f.Dst, SPort: f.SPort, DPort: f.DPort,
			Beta: 3}, // hostile: must be rejected, not clamped silently
		PolicyUpdate{Host: 0, Src: "not-an-addr", Dst: f.Dst, Beta: 1},
		PolicyUpdate{Host: 99, Src: f.Src, Dst: f.Dst, Beta: 1},
	)
	if err != nil {
		t.Fatalf("SendPolicies (one valid update): %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %+v, want 4 entries", results)
	}
	if !results[0].OK || results[0].Installed == nil || results[0].Installed.Beta != 0.5 {
		t.Fatalf("valid update result = %+v", results[0])
	}
	for i := 1; i < 4; i++ {
		if results[i].OK {
			t.Fatalf("update %d accepted: %+v", i, results[i])
		}
	}
	if !strings.Contains(results[1].Error, "beta") {
		t.Fatalf("hostile β rejection reason = %q", results[1].Error)
	}
	st, err := d.StatusNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.PolicyUpdates != 1 || st.PolicyRejects != 1 {
		t.Fatalf("updates/rejects = %d/%d, want 1/1", st.PolicyUpdates, st.PolicyRejects)
	}
	// The installed override is live on the tracked flow.
	k, _ := (PolicyUpdate{Src: f.Src, Dst: f.Dst, SPort: f.SPort, DPort: f.DPort}).key()
	var p core.Policy
	var ok bool
	if err := d.Exec(func() {
		if fl := d.Net().ACDC[0].Table.Get(k); fl != nil {
			p, ok = *fl.Policy, true
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !ok || p.Beta != 0.5 {
		t.Fatalf("override not live: %+v ok=%v", p, ok)
	}
}

func TestPolicyStreamAllFailedIs400(t *testing.T) {
	_, c := startDaemon(t, Config{})
	results, err := c.SendPolicies(
		PolicyUpdate{Host: 0, Src: "10.0.0.1", Dst: "10.0.0.2", Beta: -1},
	)
	if err == nil {
		t.Fatal("all-failed stream did not error")
	}
	if len(results) != 1 || results[0].OK {
		t.Fatalf("results = %+v", results)
	}
}

// TestPolicyStreamRejectsMistypedUpdates: a misspelt field, an install that
// states no beta and an unknown clamp field each read as β = 0 or no clamp
// when decoded leniently. Each gets its own error in the response stream and
// installs nothing; a clear, which needs no beta, still goes through.
func TestPolicyStreamRejectsMistypedUpdates(t *testing.T) {
	n := newPolicyDaemon().Net()
	flow := fmt.Sprintf(`"host":0,"src":%q,"dst":%q,"sport":1000,"dport":5001`, n.Addr(0), n.Addr(1))
	cases := []struct{ body, wantErr string }{
		{`{` + flow + `,"bta":0.5}`, `unknown field "bta"`},
		{`{` + flow + `}`, "an install must state beta"},
		{`{` + flow + `,"beta":0.5,"rwnd_clamp":1000}`, `unknown field "rwnd_clamp"`},
		{`{` + flow + `,"clear":true}`, ""},
	}
	post := func(d *Daemon, body string) []PolicyResult {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/policy", strings.NewReader(body)))
		var results []PolicyResult
		if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
			t.Fatalf("%s: status %d, body %q: %v", body, rec.Code, rec.Body, err)
		}
		return results
	}
	var stream []string
	for _, c := range cases {
		stream = append(stream, c.body)
		d := newPolicyDaemon()
		r := post(d, c.body)
		if len(r) != 1 || r[0].OK != (c.wantErr == "") || !strings.Contains(r[0].Error, c.wantErr) || r[0].Installed != nil {
			t.Fatalf("%s: results %+v, want one with error %q", c.body, r, c.wantErr)
		}
		if o := d.Net().ACDC[0].PolicyOverrides(); len(o) != 0 {
			t.Fatalf("%s: installed %v", c.body, o)
		}
	}
	d := newPolicyDaemon()
	r := post(d, strings.Join(stream, "\n"))
	if len(r) != len(cases) {
		t.Fatalf("%d results for a stream of %d updates: %+v", len(r), len(cases), r)
	}
	for i, c := range cases {
		if r[i].Index != i || r[i].OK != (c.wantErr == "") || !strings.Contains(r[i].Error, c.wantErr) {
			t.Fatalf("stream update %d: %+v, want error %q", i, r[i], c.wantErr)
		}
	}
	if o := d.Net().ACDC[0].PolicyOverrides(); len(o) != 0 {
		t.Fatalf("the stream installed %v", o)
	}
}

func TestSnapshotRoundTripAndRestart(t *testing.T) {
	d, c := startDaemon(t, Config{Workload: true})
	waitFor(t, "flows on host 0", func() bool { return hasFlows(c, 0) })
	if err := c.Restart(0, true); err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	if err := c.Restart(0, false); err != nil {
		t.Fatalf("cold restart: %v", err)
	}
	var st core.Stats
	if err := d.Exec(func() { st = d.Net().ACDC[0].Stats() }); err != nil {
		t.Fatal(err)
	}
	// The warm restart saves a snapshot and restores from it; the cold one
	// restores nothing.
	if st.Restarts != 2 || st.SnapshotSaves != 1 || st.SnapshotRestores != 1 {
		t.Fatalf("restart accounting: %+v", st)
	}
	// The restarted vSwitch keeps enforcing: flows re-appear.
	waitFor(t, "flows after restart", func() bool { return hasFlows(c, 0) })
}

func TestReadyzDegradesOnAuditViolation(t *testing.T) {
	d, c := startDaemon(t, Config{})
	if err := c.Ready(); err != nil {
		t.Fatalf("readyz before violation: %v", err)
	}
	// Seed one invariant violation directly through the auditor's public
	// event API: a β=3 cut whose factor exceeds 1 (the window grew on
	// congestion) — exactly the defect class the auditor exists to catch.
	if err := d.Exec(func() {
		d.Net().Audits[0].CutEvent(d.Net().ACDC[0], core.CutEvent{
			Key: core.FlowKey{SPort: 1, DPort: 2},
			Alg: "dctcp", Alpha: 0.5, Beta: 3,
			Factor: 1.25, PrevCwnd: 20000, NewCwnd: 25000,
		})
	}); err != nil {
		t.Fatal(err)
	}
	err := c.Ready()
	if err == nil {
		t.Fatal("readyz stayed ready after an audit violation")
	}
	if !strings.Contains(err.Error(), "audit") {
		t.Fatalf("degraded reason = %v", err)
	}
	// Liveness is unaffected: the daemon degrades, it does not die.
	if err := c.Health(); err != nil {
		t.Fatalf("healthz while degraded: %v", err)
	}
	if st, _ := d.StatusNow(); st.Degraded == "" {
		t.Fatal("status does not report degradation")
	}
}

// TestReadinessWhileLoopFailsOpen: the sim loop takes fail-opens (segments
// too short for their own headers, fed through host 0's egress hook by a
// recurring event) while eight goroutines poll /readyz and /status. The
// vSwitches' counters are plain words that only the loop touches, so under
// -race this pins that neither endpoint reads them off the loop: /readyz
// answers from the total the loop publishes, /status from a command. Each
// poller sees the total only grow, and /readyz degrades once it passes the
// limit.
func TestReadinessWhileLoopFailsOpen(t *testing.T) {
	const limit, pollers = failOpenLimit, 8
	d, c := startDaemon(t, Config{})
	if err := d.Exec(func() {
		n := d.Net()
		var feed func()
		feed = func() {
			p := packet.Build(n.Addr(0), n.Addr(1), packet.NotECT,
				packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK}, 0)
			p.IP().SetTotalLen(30) // 10 bytes short of its 40 header bytes
			n.ACDC[0].EgressPath(p)
			n.Sim.ScheduleFunc(2*sim.Microsecond, feed)
		}
		n.Sim.ScheduleFunc(0, feed)
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, pollers)
	for range pollers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				st, err := c.Status()
				if err != nil {
					errs <- fmt.Errorf("status: %v", err)
					return
				}
				if st.FailOpen < last {
					errs <- fmt.Errorf("fail_open went back from %d to %d", last, st.FailOpen)
					return
				}
				last = st.FailOpen
				if err := c.Ready(); err != nil {
					if !strings.Contains(err.Error(), "fail-open") {
						errs <- fmt.Errorf("degraded reason = %v", err)
					} else if st, err := c.Status(); err != nil || st.FailOpen < limit || st.Degraded == "" {
						errs <- fmt.Errorf("degraded at fail_open %d (limit %d), status %+v, %v", st.FailOpen, limit, st, err)
					}
					return
				}
			}
			errs <- fmt.Errorf("readyz never degraded; fail_open reached %d", last)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRestartBusyQueueSurfacesAfterRetries(t *testing.T) {
	d, c := startDaemon(t, Config{Tick: time.Millisecond})
	// Stall the sim loop on a blocked command, then fill the queue: the
	// next marshaled op must exhaust its retries and surface 503.
	unblock := make(chan struct{})
	if err := d.enqueue(func() { <-unblock }); err != nil {
		t.Fatalf("stall enqueue: %v", err)
	}
	waitFor(t, "loop to pick up the stall", func() bool {
		// Queue drained means the loop is now blocked inside the command.
		return len(d.cmds) == 0
	})
	for range queueDepth {
		if err := d.enqueue(func() {}); err != nil {
			t.Fatalf("fill enqueue: %v", err)
		}
	}
	start := time.Now()
	err := c.Restart(0, false)
	if err == nil {
		t.Fatal("restart succeeded against a stalled sim loop")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("stalled-loop restart error = %v, want 503", err)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("restart failed after %v — no retry/backoff happened", elapsed)
	}
	// Every endpoint that needs the fabric answers 503 too, the reads
	// included: none answers from a fabric it does not own.
	for path, try := range map[string]func() error{
		"/status":   func() error { _, err := c.Status(); return err },
		"/metrics":  func() error { _, err := c.Metrics(); return err },
		"/v1/flows": func() error { _, err := c.Flows(0); return err },
	} {
		if err := try(); err == nil || !strings.Contains(err.Error(), "503") {
			t.Errorf("%s against a stalled sim loop: %v, want 503", path, err)
		}
	}
	close(unblock)
	// The loop recovers: the queued no-op drains and new ops succeed.
	waitFor(t, "loop recovery", func() bool {
		return c.Restart(0, false) == nil
	})
	if st, err := d.StatusNow(); err != nil || st.EnqueueRetries == 0 {
		t.Fatalf("no enqueue retries recorded (%v)", err)
	}
}

func TestStopIsIdempotentAndInterruptsLoop(t *testing.T) {
	d := New(Config{Hosts: 2, Scale: 1.0, Tick: time.Millisecond, Workload: true})
	d.Start()
	time.Sleep(20 * time.Millisecond)
	d.Stop()
	d.Stop() // second Stop must not panic or hang
	if err := d.Exec(func() {}); err == nil {
		t.Fatal("exec succeeded after Stop")
	}
}

func TestAdminTokenGatesMutatingEndpoints(t *testing.T) {
	_, c := startDaemon(t, Config{Workload: true, AdminToken: "sekrit"})
	waitFor(t, "flows on host 0", func() bool { return hasFlows(c, 0) })
	// Read-only probes stay open: health checks and scrapes need no token.
	if err := c.Health(); err != nil {
		t.Fatalf("healthz without token: %v", err)
	}
	if _, err := c.Status(); err != nil {
		t.Fatalf("status without token: %v", err)
	}
	if _, err := c.Metrics(); err != nil {
		t.Fatalf("metrics without token: %v", err)
	}
	// Every mutating endpoint rejects a missing token with 401.
	for _, try := range []func() error{
		func() error {
			_, err := c.SendPolicies(PolicyUpdate{Host: 0, Src: "10.0.0.1", Dst: "10.0.0.2", Beta: 0.5})
			return err
		},
		func() error { return c.Restart(0, true) },
	} {
		err := try()
		if err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("mutating endpoint without token: %v, want 401", err)
		}
	}
	// A wrong token is rejected the same way, not treated as missing-only.
	if err := c.WithToken("wrong").Restart(0, true); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("restart with wrong token: %v, want 401", err)
	}
	// The right token opens the full surface.
	ac := c.WithToken("sekrit")
	if _, err := ac.SendPolicies(PolicyUpdate{Host: 0, Src: "10.0.0.1", Dst: "10.0.0.2", Beta: 0.5}); err != nil {
		t.Fatalf("policy with token: %v", err)
	}
	if err := ac.Restart(0, true); err != nil {
		t.Fatalf("restart with token: %v", err)
	}
}

func TestNoTokenLeavesEndpointsOpen(t *testing.T) {
	// The loopback deployment path: no token configured, everything serves.
	_, c := startDaemon(t, Config{Workload: true})
	waitFor(t, "flows on host 0", func() bool { return hasFlows(c, 0) })
	if err := c.Restart(0, true); err != nil {
		t.Fatalf("restart on open daemon: %v", err)
	}
}

func TestLoopbackAddr(t *testing.T) {
	for _, tc := range []struct {
		addr string
		want bool
	}{
		{"127.0.0.1:7654", true},
		{"127.9.3.4:80", true},
		{"localhost:7654", true},
		{"[::1]:7654", true},
		{"0.0.0.0:7654", false},
		{"10.1.2.3:7654", false},
		{":7654", false},          // all interfaces
		{"[::]:7654", false},      // all interfaces, v6
		{"example.com:80", false}, // non-IP hostnames are not provably loopback
	} {
		if got := LoopbackAddr(tc.addr); got != tc.want {
			t.Errorf("LoopbackAddr(%q) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// TestFabricCountersWithoutALoop covers the two states in which the fabric
// counters cannot be read on the sim loop because there is none: a daemon
// that was never started (its caller drives the simulator, as the benchmark's
// admin-plane probes do) and one that has been stopped (acdcd's final status
// line). Neither may hang, and both must still report.
func TestFabricCountersWithoutALoop(t *testing.T) {
	doms, err := faults.ParseDomains("flap@1ms,link=h0.up,down=500us,up=1ms,count=1")
	if err != nil {
		t.Fatalf("ParseDomains: %v", err)
	}
	d := New(Config{Hosts: 2, Scale: 1.0, Tick: time.Millisecond, Workload: true, Fabric: doms})
	d.Net().Sim.RunFor(5 * sim.Millisecond)
	if st, err := d.StatusNow(); err != nil || st.FabricLinkDowns != 1 || st.FabricLinkUps != 1 {
		t.Fatalf("unstarted daemon: downs %d ups %d, want 1 each (%v)", st.FabricLinkDowns, st.FabricLinkUps, err)
	}
	d.Start()
	d.Stop()
	if st, err := d.StatusNow(); err != nil || st.FabricLinkDowns != 1 {
		t.Fatalf("stopped daemon: downs %d, want 1 (%v)", st.FabricLinkDowns, err)
	}
	if snap, err := d.MetricsSnapshot(); err != nil || !strings.Contains(snap.Text(), "fabric_link_downs_total") {
		t.Fatalf("stopped daemon: metrics scrape lost the fabric counters (%v)", err)
	}
}

func TestStatusAndMetricsSurfaceFabric(t *testing.T) {
	// Arm a finite flap on h0's uplink: the status report and the metrics
	// scrape must grow fabric counters, which a fabric-free daemon omits.
	doms, err := faults.ParseDomains("flap@2ms,link=h0.up,down=500us,up=1ms,count=2")
	if err != nil {
		t.Fatalf("ParseDomains: %v", err)
	}
	d, c := startDaemon(t, Config{Workload: true, Fabric: doms})
	// Both counters: the second up trails the second down by wall-paced
	// simulated time, so waiting for the downs alone races it.
	waitFor(t, "both flaps to finish", func() bool {
		st, err := d.StatusNow()
		return err == nil && st.FabricLinkDowns >= 2 && st.FabricLinkUps >= 2
	})
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.FabricLinkDowns < 2 || st.FabricLinkUps < 2 {
		t.Fatalf("fabric counters in status = downs %d ups %d, want ≥2 each",
			st.FabricLinkDowns, st.FabricLinkUps)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"fabric_link_downs_total", "link_down_events_total{link=h0.up}"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, text)
		}
	}

	// And the fabric-free daemon stays quiet: no fabric keys in either view.
	d2, c2 := startDaemon(t, Config{Workload: true})
	if st2, _ := d2.StatusNow(); st2.FabricLinkDowns != 0 {
		t.Fatalf("fabric-free daemon reports fabric downs: %+v", st2)
	}
	text2, err := c2.Metrics()
	if err != nil {
		t.Fatalf("metrics (fabric-free): %v", err)
	}
	if strings.Contains(text2, "fabric_") || strings.Contains(text2, "link_down_events_total") {
		t.Fatalf("fabric-free metrics scrape grew fabric keys:\n%s", text2)
	}
}

// TestFlowsHostParam pins how the flows endpoint, and the restart endpoint
// that also takes ?host=, answer a bad host: a negative or unparseable one is
// a bad request, one past the fabric is not found, and an empty listing is
// [], not null.
func TestFlowsHostParam(t *testing.T) {
	h := New(Config{Hosts: 2}).Handler()
	for _, tc := range []struct {
		method, path string
		code         int
		body         string // exact body, when set
	}{
		{"GET", "/v1/flows", 200, "[]\n"},
		{"GET", "/v1/flows?host=1", 200, "[]\n"},
		{"GET", "/v1/flows?host=99", 404, ""},
		{"GET", "/v1/flows?host=-5", 400, ""},
		{"GET", "/v1/flows?host=x", 400, ""},
		{"POST", "/v1/restart?host=99", 404, ""},
		{"POST", "/v1/restart?host=-1", 400, ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.code || (tc.body != "" && rec.Body.String() != tc.body) {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, rec.Code, rec.Body, tc.code, tc.body)
		}
	}
}

// TestAdminSurfaceConcurrent drives every admin endpoint from many client
// goroutines at once against a live daemon — workload on, a flapping link —
// which is where the service's concurrency lives. Run with -race: each call
// reaches the fabric through the sim loop or answers 503, and the datapath
// stays clean.
func TestAdminSurfaceConcurrent(t *testing.T) {
	doms, err := faults.ParseDomains("flap@1ms,link=h0.up,down=500us,up=1ms,count=100")
	if err != nil {
		t.Fatalf("ParseDomains: %v", err)
	}
	const hosts, clients = 4, 8
	d := New(Config{Hosts: hosts, Scale: 1.0, Tick: time.Millisecond, Workload: true, Fabric: doms})
	addrs := make([]string, hosts)
	for i := range addrs {
		addrs[i] = d.Net().Addr(i).String()
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	var wg sync.WaitGroup
	deadline := time.Now().Add(500 * time.Millisecond)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			host := g % hosts
			u := PolicyUpdate{Host: host, Src: addrs[host], Dst: addrs[(host+1)%hosts],
				SPort: uint16(40000 + g), DPort: 5001, Beta: 0.5}
			calls := []func() error{
				func() error { _, err := c.SendPolicies(u); return err },
				func() error { u := u; u.Clear = true; _, err := c.SendPolicies(u); return err },
				func() error { _, err := c.Flows(-1); return err },
				func() error { _, err := c.Flows(host); return err },
				func() error { _, err := c.Status(); return err },
				func() error { _, err := c.Metrics(); return err },
				func() error { return c.Restart(host, true) },
				func() error { return c.Restart(host, false) },
			}
			for i := 0; time.Now().Before(deadline); i++ {
				if err := calls[i%len(calls)](); err != nil && !strings.Contains(err.Error(), " 503 ") {
					t.Errorf("client %d, call %d: %v", g, i%len(calls), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	d.Stop()

	st, err := d.StatusNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.AuditTotal != 0 {
		t.Fatalf("%d audit violations under concurrent admin traffic", st.AuditTotal)
	}
	flows, err := d.Flows(-1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Flows != len(flows) {
		t.Fatalf("status counts %d flows, the listing has %d", st.Flows, len(flows))
	}
}
