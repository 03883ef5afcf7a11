package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"acdc/internal/sim"
)

// tinySpec is a fast two-scheme scenario used by the runner tests.
func tinySpec() Spec {
	return Spec{
		Name: "tiny",
		Topo: TopoSpec{Kind: "dumbbell", Hosts: 2},
		Workloads: []WorkloadSpec{
			{Kind: "bulk-pairs"},
			{Kind: "prober", From: 0, To: 2},
		},
		Schemes: []string{"cubic", "acdc"},
		Audit:   true,
		Warmup:  Duration(2 * sim.Millisecond),
		Measure: Duration(8 * sim.Millisecond),
		Checks: []Check{
			{Metric: "tput_avg_gbps", Min: fp(0.5)},
			{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
		},
	}
}

func TestCatalogValidates(t *testing.T) {
	specs := Catalog()
	if len(specs) < 8 {
		t.Fatalf("catalog has %d scenarios, issue requires ≥ 8", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog %s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate catalog name %s", s.Name)
		}
		names[s.Name] = true
		// Every catalog entry must carry a smoke shape and at least one check,
		// or CI's reduced run silently loses coverage.
		if s.Smoke == nil {
			t.Errorf("catalog %s: no smoke override", s.Name)
		}
		if len(s.Checks) == 0 {
			t.Errorf("catalog %s: no invariant checks", s.Name)
		}
	}
	for _, want := range []string{"baseline", "incast-heavy", "high-load", "degraded-latency",
		"lossy-link", "feedback-blackout", "rolling-restart", "mixed-tenant",
		"fabric-incast", "ecmp-imbalance", "tor-failure", "gray-spine"} {
		if !names[want] {
			t.Errorf("catalog missing required scenario %s", want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := tinySpec()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no-name", func(s *Spec) { s.Name = "" }},
		{"bad-topo", func(s *Spec) { s.Topo.Kind = "torus" }},
		{"no-workloads", func(s *Spec) { s.Workloads = nil }},
		{"bad-scheme", func(s *Spec) { s.Schemes = []string{"bbr"} }},
		{"bad-kind", func(s *Spec) { s.Workloads[0].Kind = "warp" }},
		{"prober-oob", func(s *Spec) { s.Workloads[1].To = 99 }},
		{"prober-self", func(s *Spec) { s.Workloads[1].To = 0 }},
		{"bad-faults", func(s *Spec) { s.Faults = "gremlins" }},
		{"bad-restart", func(s *Spec) { s.Restart = "hot@never" }},
		// A plan naming a host the topology lacks would restart nothing.
		{"restart-past-topology", func(s *Spec) { s.Restart = "warm@1ms,host=4" }},
		{"restart-past-smoke-topology", func(s *Spec) {
			s.Restart = "warm@1ms,host=3"
			s.Smoke = &Adjust{Hosts: 1, Workloads: []WorkloadSpec{{Kind: "bulk-pairs"}}}
		}},
		{"bad-fabric", func(s *Spec) { s.Fabric = "meteor,link=x" }},
		{"bad-smoke-fabric", func(s *Spec) { s.Smoke = &Adjust{Fabric: "gray,loss=0.5"} }},
		{"fattree-odd-k", func(s *Spec) { s.Topo = TopoSpec{Kind: "fattree", K: 3} }},
		{"fattree-neg-hpt", func(s *Spec) { s.Topo = TopoSpec{Kind: "fattree", K: 4, HostsPerTor: -1} }},
		{"neg-link-rate", func(s *Spec) { s.Topo.LinkRate = -1 }},
		{"neg-link-delay", func(s *Spec) { s.Topo.LinkDelay = Duration(-5 * sim.Microsecond) }},
		{"neg-buffer", func(s *Spec) { s.Topo.BufferBytes = -1 }},
		{"check-no-metric", func(s *Spec) { s.Checks = []Check{{Min: fp(1)}} }},
		{"check-wrong-scheme", func(s *Spec) { s.Checks = []Check{{Scheme: "dctcp", Metric: "x"}} }},
		{"check-inverted", func(s *Spec) { s.Checks = []Check{{Metric: "x", Min: fp(2), Max: fp(1)}} }},
		{"bad-smoke", func(s *Spec) { s.Smoke = &Adjust{Workloads: []WorkloadSpec{{Kind: "warp"}}} }},
		{"incast-too-wide", func(s *Spec) {
			s.Topo = TopoSpec{Kind: "star", Hosts: 4}
			s.Workloads = []WorkloadSpec{{Kind: "incast", Senders: 4}}
		}},
		{"stride-self-conn", func(s *Spec) {
			s.Topo = TopoSpec{Kind: "star", Hosts: 8}
			s.Workloads = []WorkloadSpec{{Kind: "stride"}}
		}},
		{"churn-too-big", func(s *Spec) {
			s.Topo = TopoSpec{Kind: "star", Hosts: 4}
			s.Workloads = []WorkloadSpec{{Kind: "tenant-churn", Tenants: 3, HostsPerTenant: 4}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySpec()
			_ = base
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	type box struct {
		D Duration `json:"d"`
	}
	for _, tc := range []struct {
		in   string
		want Duration
	}{
		{`{"d":"1.5ms"}`, Duration(1500 * sim.Microsecond)},
		{`{"d":"200us"}`, Duration(200 * sim.Microsecond)},
		{`{"d":50000}`, Duration(50000)},
	} {
		var b box
		if err := json.Unmarshal([]byte(tc.in), &b); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if b.D != tc.want {
			t.Fatalf("%s: got %d, want %d", tc.in, b.D, tc.want)
		}
		out, _ := json.Marshal(b)
		var b2 box
		if err := json.Unmarshal(out, &b2); err != nil || b2.D != b.D {
			t.Fatalf("round trip %s → %s lost value (%v)", tc.in, out, err)
		}
	}
	var b box
	if err := json.Unmarshal([]byte(`{"d":"soon"}`), &b); err == nil {
		t.Fatal("accepted non-duration string")
	}
}

func TestLoadSpecsFile(t *testing.T) {
	spec := tinySpec()
	data, err := json.Marshal([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "specs.json")
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	specs, err := LoadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "tiny" {
		t.Fatalf("loaded %+v", specs)
	}
	// A single object (not an array) must load too.
	one, _ := json.Marshal(spec)
	if err := writeFile(path, one); err != nil {
		t.Fatal(err)
	}
	if specs, err = LoadSpecs(path); err != nil || len(specs) != 1 {
		t.Fatalf("single-object load: %v, %d specs", err, len(specs))
	}
	if _, err := ParseSpecs([]byte(`{"name":""}`)); err == nil {
		t.Fatal("ParseSpecs accepted an invalid spec")
	}
	if _, err := ParseSpecs([]byte(`"nope"`)); err == nil {
		t.Fatal("ParseSpecs accepted a non-spec")
	}
	// The shallow-buffer sweep EXPERIMENTS.md reports is a spec file for
	// `acdcsuite -config`, outside the gated catalog: 3 workloads × 5 buffer
	// depths, 5 trials each, DCTCP against AC/DC.
	sweep, err := LoadSpecs(filepath.Join("testdata", "shallow_buffer.json"))
	if err != nil {
		t.Fatalf("shallow-buffer sweep: %v", err)
	}
	if len(sweep) != 15 {
		t.Fatalf("shallow-buffer sweep has %d specs, want 15", len(sweep))
	}
	for _, s := range sweep {
		if s.Trials != 5 || !reflect.DeepEqual(s.Schemes, []string{"dctcp", "acdc"}) || s.Topo.BufferBytes == 0 {
			t.Errorf("sweep spec %s: trials %d, schemes %v, buffer %d", s.Name, s.Trials, s.Schemes, s.Topo.BufferBytes)
		}
	}
}

func TestRunTinySuite(t *testing.T) {
	results, err := Run([]Spec{tinySpec()}, SuiteConfig{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Schemes) != 2 {
		t.Fatalf("shape: %d results", len(results))
	}
	for _, sr := range results[0].Schemes {
		if len(sr.CheckFailures) != 0 {
			t.Errorf("%s checks failed: %v", sr.Scheme, sr.CheckFailures)
		}
		if sr.Metrics["tput_avg_gbps"] <= 0 {
			t.Errorf("%s: no throughput measured", sr.Scheme)
		}
		if sr.Metrics["rtt_n"] <= 0 {
			t.Errorf("%s: no probe samples", sr.Scheme)
		}
	}
	// AC/DC must export fleet telemetry (merged via metrics.Merge) and the
	// stable ctr_ namespace; CUBIC must not.
	var cubic, acdc *SchemeResult
	for _, sr := range results[0].Schemes {
		switch sr.Scheme {
		case "cubic":
			cubic = sr
		case "acdc":
			acdc = sr
		}
	}
	if acdc.Telemetry.Counter("rwnd_rewrites_total") == 0 {
		t.Error("acdc telemetry has no rwnd rewrites")
	}
	if _, ok := acdc.Metrics["ctr_rwnd_rewrites_total"]; !ok {
		t.Error("acdc metrics missing ctr_ namespace")
	}
	if _, ok := cubic.Metrics["ctr_rwnd_rewrites_total"]; ok {
		t.Error("cubic run has vSwitch counters")
	}
}

func TestRunDeterministicAndParallelInvariant(t *testing.T) {
	run := func(workers int) []*Result {
		r, err := Run([]Spec{tinySpec()}, SuiteConfig{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, par := run(1), run(1), run(4)
	for i := range a {
		for j := range a[i].Schemes {
			if !reflect.DeepEqual(a[i].Schemes[j].Metrics, b[i].Schemes[j].Metrics) {
				t.Fatalf("rerun diverged: %v vs %v", a[i].Schemes[j].Metrics, b[i].Schemes[j].Metrics)
			}
			if !reflect.DeepEqual(a[i].Schemes[j].Metrics, par[i].Schemes[j].Metrics) {
				t.Fatalf("parallel run diverged: %v vs %v", a[i].Schemes[j].Metrics, par[i].Schemes[j].Metrics)
			}
		}
	}
	// A different seed must actually change the numbers — on a spec that
	// consults the PRNG (the clean tiny spec is deliberately noise-free, so
	// fault injection supplies the randomness here).
	n1, err := Run([]Spec{noisySpec()}, SuiteConfig{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Run([]Spec{noisySpec()}, SuiteConfig{Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(n1[0].Schemes[0].Metrics, n2[0].Schemes[0].Metrics) {
		t.Fatal("different seeds produced identical metrics")
	}
}

// noisySpec is tinySpec with random loss injected, so the seed matters.
func noisySpec() Spec {
	s := tinySpec()
	s.Name = "tiny-noisy"
	s.Faults = "loss"
	s.Checks = nil
	return s
}

func TestTrialsAggregate(t *testing.T) {
	s := noisySpec()
	s.Trials = 2
	s.Schemes = []string{"acdc"}
	results, err := Run([]Spec{s}, SuiteConfig{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sr := results[0].Schemes[0]
	if len(sr.PerTrial) != 2 {
		t.Fatalf("got %d trials", len(sr.PerTrial))
	}
	if reflect.DeepEqual(sr.PerTrial[0], sr.PerTrial[1]) {
		t.Fatal("distinct trial seeds produced identical metrics")
	}
	want := (sr.PerTrial[0]["rtt_p50_ms"] + sr.PerTrial[1]["rtt_p50_ms"]) / 2
	if got := sr.Metrics["rtt_p50_ms"]; !close(got, want) {
		t.Fatalf("aggregate rtt_p50_ms %g, want trial mean %g", got, want)
	}
	// Telemetry merges across trials: two trials ≈ two single-trial sums.
	if float64(sr.Telemetry.Counter("rwnd_rewrites_total")) <= sr.PerTrial[0]["ctr_rwnd_rewrites_total"] {
		t.Fatal("telemetry not merged across trials")
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestChecksGateResults(t *testing.T) {
	s := tinySpec()
	s.Checks = []Check{{Metric: "tput_avg_gbps", Min: fp(1e9)}, {Metric: "no_such_metric", Max: fp(1)}}
	results, err := Run([]Spec{s}, SuiteConfig{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range results[0].Schemes {
		if len(sr.CheckFailures) != 2 {
			t.Fatalf("%s: %d failures (want impossible bound + absent metric): %v",
				sr.Scheme, len(sr.CheckFailures), sr.CheckFailures)
		}
	}
}

// TestBaselinePerturbationRegresses is the acceptance-criteria test: bless a
// run, perturb one blessed value beyond its tolerance band, and the diff must
// report a regression (the condition cmd/acdcsuite maps to a nonzero exit).
func TestBaselinePerturbationRegresses(t *testing.T) {
	results, err := Run([]Spec{tinySpec()}, SuiteConfig{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var f BaselineFile
	f.Bless("full", 1, results)

	if regs := f.Diff("full", 1, results, true); len(regs) != 0 {
		t.Fatalf("clean rerun against its own bless regressed: %v", regs)
	}

	// Perturb: double the blessed throughput — far outside the 10% band.
	f.Modes["full"]["tiny"]["acdc"]["tput_avg_gbps"] *= 2
	regs := f.Diff("full", 1, results, true)
	if len(regs) != 1 || regs[0].Kind != "drift" || regs[0].Metric != "tput_avg_gbps" {
		t.Fatalf("perturbed baseline: got %v, want one tput drift", regs)
	}

	// An exact-band metric regresses on any change at all.
	f.Modes["full"]["tiny"]["acdc"]["tput_avg_gbps"] /= 2
	f.Modes["full"]["tiny"]["acdc"]["audit_violations"] = 1
	if regs := f.Diff("full", 1, results, true); len(regs) != 1 || regs[0].Metric != "audit_violations" {
		t.Fatalf("audit_violations band not exact: %v", regs)
	}
}

func TestBaselineMissingStaleAndSeed(t *testing.T) {
	results, err := Run([]Spec{tinySpec()}, SuiteConfig{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var f BaselineFile
	f.Bless("full", 1, results)

	// Remove one entry → "missing" (new metric with no baseline).
	delete(f.Modes["full"]["tiny"]["acdc"], "rtt_p50_ms")
	regs := f.Diff("full", 1, results, true)
	if len(regs) != 1 || regs[0].Kind != "missing" {
		t.Fatalf("want one missing regression, got %v", regs)
	}

	// Add a phantom entry → "stale", but only on complete runs.
	f.Bless("full", 1, results)
	f.Modes["full"]["tiny"]["acdc"]["ghost_metric"] = 42
	if regs := f.Diff("full", 1, results, true); len(regs) != 1 || regs[0].Kind != "stale" {
		t.Fatalf("want one stale regression, got %v", regs)
	}
	if regs := f.Diff("full", 1, results, false); len(regs) != 0 {
		t.Fatalf("partial run flagged stale entries: %v", regs)
	}

	// Mode isolation: smoke baselines don't gate full runs.
	var g BaselineFile
	g.Bless("smoke", 1, results)
	if regs := g.Diff("full", 1, results, false); len(regs) == 0 {
		t.Fatal("diff against an empty mode reported nothing (want missing entries)")
	}

	// Seed mismatch is itself a regression.
	f.Bless("full", 1, results)
	if regs := f.Diff("full", 2, results, false); len(regs) == 0 || regs[0].Metric != "seed" {
		t.Fatalf("seed mismatch not flagged: %v", regs)
	}
}

func TestBlessRoundTripsThroughDisk(t *testing.T) {
	results, err := Run([]Spec{tinySpec()}, SuiteConfig{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var f BaselineFile
	f.Comment = "test"
	f.Bless("smoke", 1, results)
	path := filepath.Join(t.TempDir(), "base.json")
	if err := SaveBaselines(path, &f); err != nil {
		t.Fatal(err)
	}
	g, err := LoadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	if regs := g.Diff("smoke", 1, results, true); len(regs) != 0 {
		t.Fatalf("disk round trip regressed: %v", regs)
	}
	// Saving twice must be byte-identical (stable key order).
	path2 := filepath.Join(t.TempDir(), "base2.json")
	if err := SaveBaselines(path2, g); err != nil {
		t.Fatal(err)
	}
	a, b := mustRead(t, path), mustRead(t, path2)
	if a != b {
		t.Fatal("re-saved baseline file differs byte-wise")
	}
}

func TestToleranceBands(t *testing.T) {
	for _, tc := range []struct {
		metric   string
		abs, rel float64
	}{
		{"audit_violations", 0, 0},
		{"fairness", 0.05, 0},
		{"tput_avg_gbps", 0.05, 0.10},
		{"rtt_p999_ms", 0.05, 0.60},
		{"mice_p50_ms", 0.02, 0.25},
		{"ctr_rwnd_rewrites_total", 2, 0.35},
		{"fabric_failovers", 2, 0.35},
		{"rtt_n", 2, 0.25},
		{"churn_departures", 2, 0.25},
		{"something_else", 0.01, 0.25},
	} {
		abs, rel := Tolerance(tc.metric)
		if abs != tc.abs || rel != tc.rel {
			t.Errorf("Tolerance(%s) = (%g, %g), want (%g, %g)", tc.metric, abs, rel, tc.abs, tc.rel)
		}
	}
}

func TestCatalogByName(t *testing.T) {
	specs, err := CatalogByName("lossy-link", "baseline")
	if err != nil || len(specs) != 2 || specs[0].Name != "lossy-link" || specs[1].Name != "baseline" {
		t.Fatalf("got %v, %v", specs, err)
	}
	if _, err := CatalogByName("warp-core"); err == nil {
		t.Fatal("unknown name accepted")
	}
	all, err := CatalogByName()
	if err != nil || len(all) != len(Catalog()) {
		t.Fatalf("empty selection: %d specs, %v", len(all), err)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
