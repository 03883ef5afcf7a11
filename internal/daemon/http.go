package daemon

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"acdc/internal/core"
	"acdc/internal/packet"
)

// The admin API. Everything is localhost-plumbing-grade: JSON in/out, bind
// to loopback (or set Config.AdminToken and bearer-auth the mutating
// surface), stable paths:
//
//	GET  /healthz             liveness (200 while the process serves)
//	GET  /readyz              readiness (503 + reason while degraded)
//	GET  /status              Status JSON
//	GET  /metrics             merged datapath metrics, text encoding
//	GET  /v1/flows[?host=i]   tracked flows
//	GET  /v1/flows/watch      NDJSON flow snapshots (?every=100ms&for=2s)
//	POST /v1/policy           one PolicyUpdate or an NDJSON stream of them
//	POST /v1/snapshot/save    ?host=i → snapshot bytes (octet-stream)
//	POST /v1/snapshot/restore ?host=i, body = snapshot bytes
//	POST /v1/restart          ?host=i&mode=warm|cold
//
// Every failure maps to a status code in one place, statusFor: overload
// (ErrBusy after bounded retry+backoff) → 503, unknown host (ErrNoHost) →
// 404, anything else (validation, a bad parameter) → 400.

// PolicyUpdate is one streamed policy operation.
type PolicyUpdate struct {
	Host  int    `json:"host"`
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	SPort uint16 `json:"sport"`
	DPort uint16 `json:"dport"`

	Beta           float64 `json:"beta"`
	RwndClampBytes int64   `json:"rwnd_clamp_bytes,omitempty"`
	VCC            string  `json:"vcc,omitempty"`
	Disable        bool    `json:"disable,omitempty"`
	// Clear removes the override instead of installing one.
	Clear bool `json:"clear,omitempty"`
}

// PolicyResult reports one update's outcome in the response stream.
type PolicyResult struct {
	Index     int          `json:"index"`
	OK        bool         `json:"ok"`
	Error     string       `json:"error,omitempty"`
	Installed *core.Policy `json:"installed,omitempty"`
	Cleared   bool         `json:"cleared,omitempty"`
}

// ParseAddr parses a dotted-quad IPv4 address into a packet.Addr.
func ParseAddr(s string) (packet.Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("address %q is not dotted-quad", s)
	}
	var b [4]byte
	for i, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("address %q: octet %q: %v", s, p, err)
		}
		b[i] = byte(n)
	}
	return packet.MakeAddr(b[0], b[1], b[2], b[3]), nil
}

func (u PolicyUpdate) key() (core.FlowKey, error) {
	src, err := ParseAddr(u.Src)
	if err != nil {
		return core.FlowKey{}, err
	}
	dst, err := ParseAddr(u.Dst)
	if err != nil {
		return core.FlowKey{}, err
	}
	return core.FlowKey{Src: src, Dst: dst, SPort: u.SPort, DPort: u.DPort}, nil
}

func (u PolicyUpdate) policy() core.Policy {
	return core.Policy{
		Beta:           u.Beta,
		RwndClampBytes: u.RwndClampBytes,
		VCC:            u.VCC,
		Disable:        u.Disable,
	}
}

// Handler returns the admin API handler. With Config.AdminToken set, every
// mutating (POST) endpoint requires `Authorization: Bearer <token>`; the
// read-only probes (health, readiness, status, metrics, flows) stay open so
// orchestrators and scrapers work without credentials.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", d.handleReady)
	mux.HandleFunc("GET /status", d.handleStatus)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /v1/flows", d.handleFlows)
	mux.HandleFunc("GET /v1/flows/watch", d.handleFlowsWatch)
	mux.HandleFunc("POST /v1/policy", d.requireToken(d.handlePolicy))
	mux.HandleFunc("POST /v1/snapshot/save", d.requireToken(d.handleSnapshotSave))
	mux.HandleFunc("POST /v1/snapshot/restore", d.requireToken(d.handleSnapshotRestore))
	mux.HandleFunc("POST /v1/restart", d.requireToken(d.handleRestart))
	return mux
}

// requireToken gates a mutating handler on the configured bearer token. A
// daemon without one (loopback deployments) passes through untouched. The
// comparison is constant-time so the token can't be guessed byte by byte
// off response timing.
func (d *Daemon) requireToken(h http.HandlerFunc) http.HandlerFunc {
	if d.cfg.AdminToken == "" {
		return h
	}
	want := []byte(d.cfg.AdminToken)
	return func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="acdcd admin"`)
			http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// LoopbackAddr reports whether a listen address is loopback-only. The empty
// host ("":7654") binds every interface and is NOT loopback. cmd/acdcd uses
// this to refuse exposing the unauthenticated admin API beyond the machine.
func LoopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr // no port — treat the whole string as the host
	}
	if host == "" {
		return false
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	if reason := d.DegradedReason(); reason != "" {
		http.Error(w, "degraded: "+reason, http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := d.StatusNow()
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, st)
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := d.MetricsSnapshot()
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, snap.Text())
}

// hostParam parses ?host=; required reports whether the endpoint needs it.
// Absent and optional, it is -1: every host.
func hostParam(r *http.Request, required bool) (int, error) {
	s := r.URL.Query().Get("host")
	if s == "" {
		if required {
			return 0, errors.New("missing required ?host= parameter")
		}
		return -1, nil
	}
	host, err := strconv.Atoi(s)
	if err == nil && host < 0 {
		err = fmt.Errorf("negative ?host=%d", host)
	}
	return host, err
}

func (d *Daemon) handleFlows(w http.ResponseWriter, r *http.Request) {
	host, err := hostParam(r, false)
	if err != nil {
		fail(w, err)
		return
	}
	flows, err := d.Flows(host)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, flows)
}

// handleFlowsWatch streams flow snapshots as NDJSON arrays, one line per
// ?every= (default 100ms, at least 10ms), until ?for= elapses (default 1s,
// capped at 30s). Each line lists the host's table on the sim loop, so the
// floor keeps an unauthenticated watcher from taking the loop over.
func (d *Daemon) handleFlowsWatch(w http.ResponseWriter, r *http.Request) {
	host, err := hostParam(r, false)
	if err != nil {
		fail(w, err)
		return
	}
	every, dur := 100*time.Millisecond, time.Second
	if s := r.URL.Query().Get("every"); s != "" {
		if every, err = time.ParseDuration(s); err != nil || every <= 0 {
			http.Error(w, "bad ?every=", http.StatusBadRequest)
			return
		}
	}
	if s := r.URL.Query().Get("for"); s != "" {
		if dur, err = time.ParseDuration(s); err != nil || dur <= 0 {
			http.Error(w, "bad ?for=", http.StatusBadRequest)
			return
		}
	}
	every, dur = max(every, 10*time.Millisecond), min(dur, 30*time.Second)
	// The first listing answers for the whole stream: an unknown host or a
	// busy loop fails the request before anything is streamed.
	flows, err := d.Flows(host)
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	deadline := time.Now().Add(dur)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		if enc.Encode(flows) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if time.Now().After(deadline) {
			return
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		case <-d.done:
			return
		}
		if flows, err = d.Flows(host); err != nil {
			return
		}
	}
}

// handlePolicy consumes one PolicyUpdate or an NDJSON stream of them and
// responds with one PolicyResult per update. The stream is applied in order;
// a malformed or rejected update is reported in its result and does not
// abort the rest (the controller decides what to do with partial failures).
func (d *Daemon) handlePolicy(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	var results []PolicyResult
	var firstErr error
	for i := 0; ; i++ {
		var u PolicyUpdate
		err := dec.Decode(&u)
		if errors.Is(err, io.EOF) {
			break
		}
		undecodable := err != nil
		res := PolicyResult{Index: i}
		if undecodable {
			err = fmt.Errorf("decode: %w", err)
		} else {
			res, err = d.applyUpdate(i, u)
		}
		if err != nil {
			res.Error = err.Error()
			if firstErr == nil {
				firstErr = err
			}
		}
		results = append(results, res)
		if undecodable {
			break // the stream is unparseable past this point
		}
	}
	if len(results) == 0 {
		http.Error(w, "empty policy stream", http.StatusBadRequest)
		return
	}
	// One bad update in a batch is a partial failure: the status reports a
	// failure only when everything failed, 200 with per-update results
	// otherwise.
	if firstErr != nil && !slices.ContainsFunc(results, func(r PolicyResult) bool { return r.OK }) {
		w.WriteHeader(statusFor(firstErr))
	}
	writeJSON(w, results)
}

func (d *Daemon) applyUpdate(i int, u PolicyUpdate) (PolicyResult, error) {
	k, err := u.key()
	if err != nil {
		return PolicyResult{Index: i}, err
	}
	if u.Clear {
		cleared, err := d.ClearPolicy(u.Host, k)
		return PolicyResult{Index: i, OK: err == nil, Cleared: cleared}, err
	}
	installed, err := d.InstallPolicy(u.Host, k, u.policy())
	if err != nil {
		return PolicyResult{Index: i}, err
	}
	return PolicyResult{Index: i, OK: true, Installed: &installed}, nil
}

func (d *Daemon) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	host, err := hostParam(r, true)
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := d.SaveSnapshot(host)
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(snap)
}

func (d *Daemon) handleSnapshotRestore(w http.ResponseWriter, r *http.Request) {
	host, err := hostParam(r, true)
	if err != nil {
		fail(w, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		fail(w, err)
		return
	}
	if err := d.RestoreSnapshot(host, data); err != nil {
		// The vSwitch already failed open (fresh table); tell the client
		// its snapshot was rejected.
		fail(w, err)
		return
	}
	io.WriteString(w, "restored\n")
}

func (d *Daemon) handleRestart(w http.ResponseWriter, r *http.Request) {
	host, err := hostParam(r, true)
	if err != nil {
		fail(w, err)
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "warm"
	}
	if mode != "warm" && mode != "cold" {
		http.Error(w, "mode must be warm or cold", http.StatusBadRequest)
		return
	}
	if err := d.Restart(host, mode == "warm"); err != nil {
		fail(w, err)
		return
	}
	fmt.Fprintf(w, "%s restart done\n", mode)
}

// statusFor maps an error to its HTTP status code.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoHost):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// fail answers a request with err and its status code.
func fail(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), statusFor(err))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
