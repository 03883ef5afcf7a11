package scenario

import (
	"fmt"

	"acdc/internal/experiments"
	"acdc/internal/metrics"
	"acdc/internal/sim"
	"acdc/internal/stats"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/trace"
	"acdc/internal/workload"
)

// SuiteConfig parameterizes a suite run.
type SuiteConfig struct {
	// Seed is the base simulation seed; trial t of every scenario runs with
	// Seed+t so schemes are compared on identical randomness (default 1).
	Seed int64
	// Smoke applies each spec's smoke overrides (reduced CI configuration).
	Smoke bool
	// Workers is the experiments.Sweep worker count (0 = one per CPU,
	// 1 = sequential).
	Workers int
	// Progress, when non-nil, receives one line per finished scheme×trial.
	Progress func(format string, args ...any)
}

// Mode names the baseline mode key for the config.
func (c SuiteConfig) Mode() string {
	if c.Smoke {
		return "smoke"
	}
	return "full"
}

// SchemeResult is one scheme's aggregated outcome for a scenario.
type SchemeResult struct {
	// Scheme is the scheme key ("cubic", "dctcp", "acdc").
	Scheme string
	// Metrics are the scenario's headline numbers, averaged across trials.
	// The namespace (present keys depend on the workload mix and scheme):
	//
	//	tput_avg_gbps, fairness         tracked long-lived flows
	//	rtt_p50_ms/_p99_ms/_p999_ms/_n  prober samples
	//	mice_*/bg_*                     FCT-workload completions (ms)
	//	flash_p50_ms/_p999_ms/_n/_waves flash-crowd request FCTs
	//	qct_p50_ms/_p999_ms/_n          partition/aggregate query times
	//	churn_departures/_arrivals      tenant-churn events
	//	drop_rate                       fabric drops / (drops+sent)
	//	audit_violations                invariant-auditor total (0 = clean)
	//	ce_fraction, ctr_*              fleet datapath counters (AC/DC only)
	Metrics map[string]float64
	// PerTrial holds each trial's metrics (PerTrial[t] → trial t).
	PerTrial []map[string]float64
	// Telemetry is the metrics.Merge of every trial's final fleet snapshot
	// (empty for schemes without AC/DC vSwitches).
	Telemetry metrics.Snapshot
	// CheckFailures lists violated expected-invariant Checks (empty = pass).
	CheckFailures []string
}

// Result is one scenario's outcome across its schemes.
type Result struct {
	// Spec is the *effective* spec (defaults and smoke overrides applied).
	Spec Spec
	// Schemes holds one aggregated result per scheme, in spec order.
	Schemes []*SchemeResult
}

// Run executes the scenarios × schemes × trials matrix through the
// experiments.Sweep worker pool and returns one Result per scenario, in
// input order. Specs are validated first; an invalid spec fails the whole
// run before any simulation starts.
func Run(specs []Spec, cfg SuiteConfig) ([]*Result, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Flatten the matrix into Sweep jobs. Each job runs one scheme×trial in
	// its own simulator; per-job outputs land in index-addressed slices, so
	// parallel runs aggregate identically to sequential ones.
	effective := make([]Spec, 0, len(specs))
	type key struct{ spec, scheme, trial int }
	var keys []key
	var jobs []experiments.Job
	var snaps []metrics.Snapshot
	for si, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if cfg.Smoke {
			s = s.ForSmoke()
		} else {
			s = s.withDefaults()
		}
		env, err := s.env()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
		}
		effective = append(effective, s)
		for pi, scheme := range s.Schemes {
			for t := 0; t < s.Trials; t++ {
				idx := len(jobs)
				scheme, t := scheme, t
				keys = append(keys, key{si, pi, t})
				jobs = append(jobs, experiments.Job{Exp: experiments.Experiment{
					ID: fmt.Sprintf("%s/%s#%d", s.Name, scheme, t+1),
					Run: func(experiments.RunConfig) *experiments.Result {
						m, snap := runTrial(s, env, scheme, cfg.Seed+int64(t))
						snaps[idx] = snap
						return &experiments.Result{Metrics: m}
					},
				}})
			}
		}
	}
	snaps = make([]metrics.Snapshot, len(jobs))

	results := experiments.Sweep(jobs, cfg.Workers, func(i int, r *experiments.Result) {
		if cfg.Progress != nil {
			cfg.Progress("  done %s", jobs[i].Exp.ID)
		}
	})

	// Group trials back into per-scenario, per-scheme aggregates.
	out := make([]*Result, len(effective))
	for i := range effective {
		out[i] = &Result{Spec: effective[i]}
		for _, scheme := range effective[i].Schemes {
			out[i].Schemes = append(out[i].Schemes, &SchemeResult{
				Scheme: scheme, Metrics: map[string]float64{},
			})
		}
	}
	for idx, k := range keys {
		sr := out[k.spec].Schemes[k.scheme]
		sr.PerTrial = append(sr.PerTrial, results[idx].Metrics)
		sr.Telemetry = metrics.Merge(sr.Telemetry, snaps[idx])
	}
	for _, r := range out {
		for _, sr := range r.Schemes {
			for _, trial := range sr.PerTrial {
				for k, v := range trial {
					sr.Metrics[k] += v / float64(len(sr.PerTrial))
				}
			}
			sr.CheckFailures = evalChecks(r.Spec, sr)
		}
	}
	return out, nil
}

// evalChecks evaluates the spec's expected-invariant assertions against one
// scheme's aggregated metrics.
func evalChecks(s Spec, sr *SchemeResult) []string {
	var fails []string
	for _, c := range s.Checks {
		if c.Scheme != "" && c.Scheme != sr.Scheme {
			continue
		}
		v, ok := sr.Metrics[c.Metric]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: metric %s absent (want %s)", sr.Scheme, c.Metric, c.bound()))
			continue
		}
		if (c.Min != nil && v < *c.Min) || (c.Max != nil && v > *c.Max) {
			fails = append(fails, fmt.Sprintf("%s: %s = %g outside %s", sr.Scheme, c.Metric, v, c.bound()))
		}
	}
	return fails
}

// schemeFor builds the experiments.Scheme for a scheme key.
func schemeFor(key string, mtu int, minRwnd int64) experiments.Scheme {
	switch key {
	case "dctcp":
		return experiments.SchemeDCTCP(mtu)
	case "acdc":
		s := experiments.SchemeACDC(mtu, "cubic", tcpstack.ECNOff)
		if minRwnd > 0 {
			s.ACDC.MinRwndBytes = minRwnd
		}
		return s
	default:
		return experiments.SchemeCUBIC(mtu)
	}
}

// trialState accumulates one trial's live drivers and measured flows.
type trialState struct {
	net     *topo.Net
	m       *workload.Manager
	flows   []*workload.Messenger // rate-tracked long-lived flows
	probers []*workload.Prober
	fcts    workload.FCTs // stride/trace FCT accumulator (shared)
	flash   []*workload.FlashCrowd
	churn   []*workload.TenantChurn
	pa      []*workload.PartitionAggregate
}

// runTrial builds one net, drives the workload mix through warmup+measure,
// and returns the trial's metrics plus the final fleet telemetry snapshot.
func runTrial(s Spec, env topo.Env, schemeKey string, seed int64) (map[string]float64, metrics.Snapshot) {
	scheme := schemeFor(schemeKey, s.MTU, s.MinRwndBytes)
	opts := topo.Options{
		LinkRate:    s.Topo.LinkRate,
		LinkDelay:   s.Topo.LinkDelay.D(),
		BufferBytes: s.Topo.BufferBytes,
		Guest:       scheme.Guest,
		ACDC:        scheme.ACDC,
		RED:         scheme.RED,
		Seed:        seed,
		Env:         env,
	}

	st := &trialState{}
	switch s.Topo.Kind {
	case "dumbbell":
		st.net = topo.Dumbbell(s.Topo.Hosts, opts)
	case "parkinglot":
		st.net = topo.ParkingLot(opts)
	case "fattree":
		st.net = topo.FatTree(topo.FatTreeConfig{K: s.Topo.K, HostsPerTor: s.Topo.HostsPerTor}, opts)
	default:
		st.net = topo.Star(s.Topo.Hosts, opts)
	}
	st.m = workload.NewManager(st.net)
	hosts := len(st.net.Hosts)

	for _, w := range s.Workloads {
		st.launch(s, w, hosts)
	}

	st.net.Sim.RunFor(s.Warmup.D())
	conserve(st.net, s.Name, "warmup")
	for _, p := range st.probers {
		p.Start()
	}
	start := make([]int64, len(st.flows))
	for i, f := range st.flows {
		start[i] = f.Delivered()
	}
	st.net.Sim.RunFor(s.Measure.D())
	conserve(st.net, s.Name, "measure")
	for _, p := range st.probers {
		p.Stop()
	}
	for _, f := range st.flash {
		f.Stop()
	}
	for _, c := range st.churn {
		c.Stop()
	}
	for _, pa := range st.pa {
		pa.Stop()
	}

	return st.collect(s, start)
}

// conserve is the fabric conservation audit in panic mode: a packet or a
// buffer byte the net's accounting cannot place aborts the suite.
func conserve(net *topo.Net, scenario, phase string) {
	if err := net.CheckConservation(); err != nil {
		panic(fmt.Sprintf("scenario %s: conservation audit after %s: %v", scenario, phase, err))
	}
}

// launch wires one workload element into the trial.
func (st *trialState) launch(s Spec, w WorkloadSpec, hosts int) {
	switch w.Kind {
	case "bulk-pairs":
		pairs := s.Topo.Hosts
		if s.Topo.Kind == "parkinglot" {
			// Parking lot: the five senders each flood the single receiver.
			for i := 1; i < hosts; i++ {
				st.flows = append(st.flows, workload.Bulk(st.m, i, 0))
			}
			return
		}
		for i := 0; i < pairs; i++ {
			st.flows = append(st.flows, workload.Bulk(st.m, i, pairs+i))
		}
	case "incast":
		senders := make([]int, w.Senders)
		for i := range senders {
			senders[i] = i
		}
		st.flows = append(st.flows, workload.Incast(st.m, senders, w.Senders)...)
	case "prober":
		st.probers = append(st.probers, workload.NewProber(st.m, w.From, w.To))
	case "partagg":
		workers := make([]int, w.Senders)
		for i := range workers {
			workers[i] = i
		}
		shard := w.Bytes
		if shard == 0 {
			shard = 32 << 10
		}
		pa := workload.NewPartitionAggregate(st.m, w.Senders, workers, shard)
		pa.Run(w.Period.D())
		st.pa = append(st.pa, pa)
	case "stride":
		n := w.Hosts
		if n == 0 {
			n = hosts
		}
		cfg := workload.StrideConfig{N: n, BgBytes: w.Bytes, MiceBytes: w.MiceBytes, MicePeriod: w.Period.D()}
		if cfg.BgBytes == 0 {
			cfg.BgBytes = 8 << 20
		}
		if cfg.MiceBytes == 0 {
			cfg.MiceBytes = 16 << 10
		}
		if cfg.MicePeriod == 0 {
			cfg.MicePeriod = 2 * sim.Millisecond
		}
		workload.Stride(st.m, cfg, &st.fcts)
	case "trace":
		n := w.Hosts
		if n == 0 {
			n = hosts
		}
		d := trace.WebSearch()
		if w.Dist == "data-mining" {
			d = trace.DataMining()
		}
		cfg := workload.TraceConfig{N: n, AppsPerServer: 3, Dist: d}
		workload.TraceDriven(st.m, cfg, &st.fcts)
	case "flash-crowd":
		senders := make([]int, w.Senders)
		for i := range senders {
			senders[i] = i
		}
		f := workload.NewFlashCrowd(st.m, workload.FlashCrowdConfig{
			Senders: senders, Hot: w.Senders, Bytes: w.Bytes, Period: w.Period.D(),
		})
		f.Start()
		st.flash = append(st.flash, f)
	case "tenant-churn":
		c := workload.NewTenantChurn(st.m, TenantChurnConfigOf(w))
		c.Start()
		st.churn = append(st.churn, c)
	}
}

// TenantChurnConfigOf maps a workload spec onto the tenant-churn driver's
// config (shared between validation and launch so the two can't diverge).
func TenantChurnConfigOf(w WorkloadSpec) workload.TenantChurnConfig {
	return workload.TenantChurnConfig{
		Tenants:        w.Tenants,
		HostsPerTenant: w.HostsPerTenant,
		BgBytes:        w.Bytes,
		MiceBytes:      w.MiceBytes,
		MicePeriod:     w.Period.D(),
		ChurnPeriod:    w.ChurnPeriod.D(),
	}
}

// headlineCounters are the fleet counters exported as ctr_* metrics for
// baselining and checks. Lazy counters that never fired read as 0, so the
// key set is stable across runs.
var headlineCounters = []string{
	"rwnd_rewrites_total",
	"flows_resynced_total",
	"flows_adopted_midstream_total",
	"vswitch_restarts_total",
	"snapshot_restore_total",
	"snapshot_corrupt_total",
	"fail_open_total",
	"feedback_timeouts_total",
	"flows_evicted_total",
	"fault_drops_total",
	"fault_feedback_drops_total",
	"fault_feedback_strips_total",
}

// fabricCounters map fabric_* metric keys onto FabricSnapshot counter names.
// Emitted (with zeros for counters that never fired) only on fabrics —
// multi-path topologies or single-path ones with armed fault domains — so
// classic scenarios keep their exact pre-fabric metric namespace.
var fabricCounters = [][2]string{
	{"fabric_link_downs", "fabric_link_downs_total"},
	{"fabric_link_ups", "fabric_link_ups_total"},
	{"fabric_failovers", "ecmp_failovers_total"},
	{"fabric_blackholes", "ecmp_blackholes_total"},
	{"fabric_gray_drops", "fabric_gray_drops_total"},
	{"fabric_drops_queue", "link_drops_total{reason=queue}"},
	{"fabric_drops_fault", "link_drops_total{reason=fault}"},
	{"fabric_drops_down", "link_drops_total{reason=down}"},
}

// collect derives the trial's metric map and fleet snapshot.
func (st *trialState) collect(s Spec, start []int64) (map[string]float64, metrics.Snapshot) {
	out := map[string]float64{}
	ms := func(smp *stats.Sample, prefix string) {
		out[prefix+"_p50_ms"] = smp.Percentile(50) / 1e6
		out[prefix+"_p999_ms"] = smp.Percentile(99.9) / 1e6
		out[prefix+"_n"] = float64(smp.N())
	}

	if len(st.flows) > 0 {
		rates := make([]float64, len(st.flows))
		for i, f := range st.flows {
			rates[i] = float64(f.Delivered()-start[i]) * 8 / s.Measure.D().Seconds() / 1e9
		}
		var total float64
		for _, r := range rates {
			total += r
		}
		out["tput_avg_gbps"] = total / float64(len(rates))
		out["fairness"] = stats.JainFairness(rates)
	}
	if len(st.probers) > 0 {
		var all stats.Sample
		for _, p := range st.probers {
			all.AddAll(p.Samples)
		}
		out["rtt_p50_ms"] = all.Percentile(50) / 1e6
		out["rtt_p99_ms"] = all.Percentile(99) / 1e6
		out["rtt_p999_ms"] = all.Percentile(99.9) / 1e6
		out["rtt_n"] = float64(all.N())
	}
	if st.fcts.Mice.N() > 0 || st.fcts.Background.N() > 0 {
		ms(&st.fcts.Mice, "mice")
		out["bg_p50_ms"] = st.fcts.Background.Percentile(50) / 1e6
		out["bg_n"] = float64(st.fcts.Background.N())
	}
	if len(st.churn) > 0 {
		var mice, bg stats.Sample
		var dep, arr float64
		for _, c := range st.churn {
			mice.AddAll(&c.FCTs.Mice)
			bg.AddAll(&c.FCTs.Background)
			dep += float64(c.Departures)
			arr += float64(c.Arrivals)
		}
		ms(&mice, "mice")
		out["bg_p50_ms"] = bg.Percentile(50) / 1e6
		out["bg_n"] = float64(bg.N())
		out["churn_departures"] = dep
		out["churn_arrivals"] = arr
	}
	if len(st.flash) > 0 {
		var fct stats.Sample
		var waves float64
		for _, f := range st.flash {
			fct.AddAll(&f.FCT)
			waves += float64(f.Waves)
		}
		ms(&fct, "flash")
		out["flash_waves"] = waves
	}
	if len(st.pa) > 0 {
		var qct stats.Sample
		for _, pa := range st.pa {
			qct.AddAll(&pa.QCT)
		}
		ms(&qct, "qct")
	}

	out["drop_rate"] = st.net.DropRate()
	out["audit_violations"] = float64(st.net.AuditViolations())

	// The fleet view includes the fabric's counters, whose names no headline
	// counter shares; schemes without vSwitches get the fabric's alone.
	snap, ok := st.net.FleetSnapshot()
	if ok {
		if rx := snap.Counter("rx_data_bytes_total"); rx > 0 {
			out["ce_fraction"] = float64(snap.Counter("rx_ce_bytes_total")) / float64(rx)
		}
		for _, name := range headlineCounters {
			out["ctr_"+name] = float64(snap.Counter(name))
		}
	}
	if st.net.HasFabric() {
		fsnap := st.net.FabricSnapshot()
		for _, kv := range fabricCounters {
			out[kv[0]] = float64(fsnap.Counter(kv[1]))
		}
		if !ok {
			snap = metrics.Merge(snap, fsnap)
		}
	}
	return out, snap
}
