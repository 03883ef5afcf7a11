package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// smoke is every workload at about 1/2000 of the benchmark's work: two slices
// of a twentieth of the span each, after a twentieth of the warm-up.
var smoke = passConfig{seed: 1, seconds: 0.1, scale: 0.05, setups: 1}

func smokePass(t *testing.T, w spec, seed int64) *passResult {
	t.Helper()
	cfg := smoke
	cfg.seed = seed
	r := runPass(w, cfg)
	for _, e := range r.errs {
		t.Error(e)
	}
	// Failed ops are not checked here: after a twentieth of the warm-up some
	// bulk flows have yet to deliver their first byte.
	if r.out.opsTried == 0 {
		t.Errorf("%s: no ops attempted", w.name)
	}
	return r
}

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := smokePass(t, w, 1), smokePass(t, w, 1), smokePass(t, w, 2)
		if a.out != b.out || a.win != b.win {
			t.Errorf("%s: same seed, different results:\n%+v %+v\n%+v %+v", w.name, a.out, a.win, b.out, b.win)
		}
		if a.out.digest == c.out.digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %016x", w.name, a.out.digest)
		}
		for name, v := range endToEndValues(a) {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

func TestTracedPassMatchesTimedPass(t *testing.T) {
	if raceEnabled {
		t.Skip("no usable CPU profile under the race detector")
	}
	w, _ := findWorkload("mice-churn")
	cfg := smoke
	cfg.seconds, cfg.scale = 0.5, 0.5 // long enough for the 100 Hz profiler to sample
	lr := traceWorkload(w, cfg, nil)
	for _, e := range lr.errs {
		t.Error(e)
	}
	if lr.attr.samples == 0 {
		t.Fatal("traced pass attributed no samples")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON holds the names the command prints and the
// contract in BENCHMARK.json together.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) > 8 || len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over the limits 8, 16, 128",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}

	// What the command prints: the keys of the result line in either mode.
	w, _ := findWorkload("vswitch-10k")
	lr := traceWorkload(w, smoke, nil)
	printed := func(defs []metricDef, vals map[string]float64) []string {
		var buf bytes.Buffer
		if err := writeResultLine(&buf, lr.timed, true, defs, vals); err != nil {
			t.Fatal(err)
		}
		var line resultLine
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range line.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		return names
	}
	var wantE2E, wantLayer []string
	for i, m := range bj.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the command %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		if d := perLayer()[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command %+v", i, m, d)
		}
	}
	slices.Sort(wantE2E)
	slices.Sort(wantLayer)
	if got := printed(endToEnd, endToEndValues(lr.timed)); !slices.Equal(got, wantE2E) {
		t.Errorf("end-to-end names printed %v, BENCHMARK.json has %v", got, wantE2E)
	}
	if got := printed(perLayer(), lr.values()); !slices.Equal(got, wantLayer) {
		t.Errorf("per-layer names printed %v, BENCHMARK.json has %v", got, wantLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range append(append(wantE2E, wantLayer...), workloadNames()...) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// TestVSwitchTrafficIsSteadyState pins what separates this fixture from a
// replayed template: every ACK is consumed as new feedback, windows are cut by
// congestion and regrow, and none of the datapath's exception paths fire.
func TestVSwitchTrafficIsSteadyState(t *testing.T) {
	f := buildVSwitch(1, 0.05).(*vsFixture)
	f.startWindow()
	for i := 0; i < 20; i++ {
		f.slice()
	}
	o := f.finish()
	if o.opsFailed != 0 {
		t.Errorf("%d packets consumed or dropped by the hooks", o.opsFailed)
	}
	s := f.v.Stats()
	if s.PacksConsumed != f.acksIn {
		t.Errorf("PacksConsumed = %d, ACKs offered = %d", s.PacksConsumed, f.acksIn)
	}
	if s.RwndRewrites == 0 {
		t.Error("no RWND rewrite")
	}
	for name, v := range map[string]int64{
		"PolicingDrops": s.PolicingDrops, "FailOpen": s.FailOpen, "UntrackedSegs": s.UntrackedSegs,
		"VTimeouts": s.VTimeouts, "FeedbackTimeouts": s.FeedbackTimeouts, "DupAcksGenerated": s.DupAcksGenerated,
		"FacksSent": s.FacksSent, "MalformedOptions": s.MalformedOptions,
	} {
		if v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	if ce := f.v.Metrics.Snapshot().Counter("rx_ce_bytes_total"); ce == 0 {
		t.Error("rx_ce_bytes_total = 0: the receiver half saw no CE")
	}
	if s.PacksAttached == 0 {
		t.Error("the receiver half attached no PACK")
	}
	// Flow 0 is a sender: the window its guest is told both shrinks and grows.
	var grew, shrank int
	for i := 1; i < len(f.watched); i++ {
		switch {
		case f.watched[i] > f.watched[i-1]:
			grew++
		case f.watched[i] < f.watched[i-1]:
			shrank++
		}
	}
	if grew == 0 || shrank == 0 {
		t.Errorf("flow 0's enforced window grew %d times and shrank %d times over %d ACKs; want both", grew, shrank, len(f.watched))
	}
}

// TestProbesRun runs one repetition of every probe's batch.
func TestProbesRun(t *testing.T) {
	if raceEnabled {
		t.Skip("probes are single-goroutine timing loops")
	}
	for _, p := range probes {
		ops, d := p.build()()
		if ops <= 0 || d <= 0 {
			t.Errorf("%s: %d ops in %v", p.name, ops, d)
		}
	}
}
