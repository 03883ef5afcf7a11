package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; bench_test.go holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the simulator sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pkts_per_s_norm", "1/s", "higher", 0.20},
	{"alloc_mb", "MB", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"sim_goodput_gbps", "Gbit/s", "higher", 0.02},
	{"sim_fairness", "ratio", "higher", 0.02},
	{"sim_tail_us", "us", "lower", 0.15},
}

// countMetrics are exact counts at the layer boundaries, from public
// counters, over the measured window.
var countMetrics = []metricDef{
	{"sim.events_per_pkt", "count", "lower", 0},
	{"sim.pending_max", "count", "lower", 0},
	{"packet.pool_news_per_kpkt", "count", "lower", 0},
	{"netsim.hops_per_pkt", "count", "lower", 0},
	{"netsim.drops", "count", "lower", 0},
	{"netsim.ce_marks", "count", "lower", 0},
	{"netsim.queue_max_kb", "kB", "lower", 0},
	{"tcpstack.conns_opened", "count", "higher", 0},
	{"tcpstack.retrans_segs", "count", "lower", 0},
	{"core.pkts", "count", "higher", 0},
	{"core.rwnd_rewrites", "count", "higher", 0},
	{"core.flows_created", "count", "higher", 0},
	{"core.flows_live_end", "count", "lower", 0},
	{"core.fail_open", "count", "lower", 0},
}

const traceOverhead = "harness.trace_overhead"

// workloadLayerMetrics are the per-layer metrics that belong to one workload:
// CPU shares and the tracing overhead from the traced pass, then the counts.
func workloadLayerMetrics() []metricDef {
	var out []metricDef
	for _, l := range shareLayers {
		out = append(out, metricDef{l + ".cpu_share", "ratio", "lower", 0})
	}
	out = append(out, metricDef{traceOverhead, "ratio", "lower", 0})
	return append(out, countMetrics...)
}

// perLayer returns every per-layer metric: a workload's own, then the probes.
func perLayer() []metricDef {
	out := workloadLayerMetrics()
	for _, p := range probes {
		out = append(out, metricDef{p.name, p.unit, "lower", 0})
	}
	return out
}

func endToEndValues(r *passResult) map[string]float64 {
	return map[string]float64{
		"setup_s":          r.setupS,
		"pkts_per_s_norm":  r.rate,
		"alloc_mb":         r.allocMB,
		"heap_live_mb":     r.heapLiveMB,
		"sim_goodput_gbps": r.out.goodputGbps,
		"sim_fairness":     r.out.fairness,
		"sim_tail_us":      r.out.tailUS,
	}
}

func countValues(r *passResult) map[string]float64 {
	w, pk := r.win, float64(r.win.pkts)
	return map[string]float64{
		"sim.events_per_pkt":        float64(w.events) / pk,
		"sim.pending_max":           float64(r.pendingMax),
		"packet.pool_news_per_kpkt": 1e3 * float64(w.poolNews) / pk,
		"netsim.hops_per_pkt":       float64(w.hops) / pk,
		"netsim.drops":              float64(w.drops),
		"netsim.ce_marks":           float64(w.ceMarks),
		"netsim.queue_max_kb":       r.out.queueMaxKB,
		"tcpstack.conns_opened":     float64(w.connsOpened),
		"tcpstack.retrans_segs":     float64(w.retransSegs),
		"core.pkts":                 float64(w.corePkts),
		"core.rwnd_rewrites":        float64(w.rwndRewrite),
		"core.flows_created":        float64(w.flowsMade),
		"core.flows_live_end":       float64(w.flowsLive),
		"core.fail_open":            float64(w.failOpen),
	}
}

// layerReport is one workload measured twice plus the probes.
type layerReport struct {
	timed, traced *passResult
	attr          *attribution
	probes        []probeResult
	errs          []string
}

// traceWorkload runs the timed pass and the traced pass of the identical
// simulation and checks that tracing changed nothing but the speed.
func traceWorkload(w spec, cfg passConfig, probes []probeResult) *layerReport {
	cfg.traced = false
	lr := &layerReport{timed: runPass(w, cfg), probes: probes}
	cfg.traced, cfg.setups = true, 1
	lr.traced = runPass(w, cfg)
	lr.errs = append(lr.errs, lr.timed.errs...)
	lr.errs = append(lr.errs, lr.traced.errs...)
	if a, b := lr.timed.out.digest, lr.traced.out.digest; a != b {
		lr.errs = append(lr.errs, fmt.Sprintf("%s: digest %016x timed, %016x traced", w.name, a, b))
	}
	var err error
	if lr.attr, err = attribute(lr.traced.profile); err != nil {
		lr.errs = append(lr.errs, fmt.Sprintf("%s: %v", w.name, err))
		lr.attr = &attribution{shares: map[string]float64{}}
		return lr
	}
	var sum float64
	for _, s := range lr.attr.shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		lr.errs = append(lr.errs, fmt.Sprintf("%s: cpu shares sum to %v, want 1", w.name, sum))
	}
	return lr
}

func (lr *layerReport) values() map[string]float64 {
	v := countValues(lr.timed)
	for l, s := range lr.attr.shares {
		v[l+".cpu_share"] = s
	}
	v[traceOverhead] = 1 - lr.traced.rate/lr.timed.rate
	for _, p := range lr.probes {
		v[p.name] = p.value
	}
	return v
}

// printMetrics writes one "name value unit" line per metric, in the order of
// defs.
func printMetrics(w io.Writer, prefix string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%s%-34s %16.6g %s\n", prefix, d.name, vals[d.name], d.unit)
	}
}

func printPass(w io.Writer, r *passResult) {
	kind := "timed"
	if r.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s [%s pass] digest %016x\n", r.workload, kind, r.out.digest)
	printMetrics(w, "  ", endToEnd, endToEndValues(r))
	fmt.Fprintf(w, "  pkts_per_s_norm: median of n=%d slices, p05 %.6g 1/s; raw (not normalised) %.6g 1/s\n",
		r.slices, r.rateP05, r.rateRaw)
	fmt.Fprintf(w, "  sim_tail_us: p99 of n=%d samples\n", r.out.tailN)
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d\n", r.out.opsTried, r.out.opsFailed)
	fmt.Fprintf(w, "  information only: window %.2f s wall (%.2f s calibrating), machine %.2f× slower than the reference, %d packets\n",
		r.wallS, r.calWallS, r.slowdown, r.win.pkts)
}

func printLayers(w io.Writer, lr *layerReport) {
	printPass(w, lr.traced)
	fmt.Fprintf(w, "%s [per layer] %d samples, %.2f s CPU attributed, %.2f s in the calibration kernel left out\n",
		lr.timed.workload, lr.attr.samples, float64(lr.attr.cpuNS)/1e9, float64(lr.attr.calNS)/1e9)
	printMetrics(w, "  ", workloadLayerMetrics(), lr.values())
	lr.printLedger(w)
}

func printProbes(w io.Writer, ps []probeResult) {
	fmt.Fprintf(w, "layer probes (normalised median of %d repetitions)\n", probeReps)
	for _, p := range ps {
		fmt.Fprintf(w, "  %-34s %16.6g %s   %.3g allocs/op\n", p.name, p.value, p.unit, p.allocs)
	}
}

// ledgerFactor is how far probe cost × count may sit from a layer's profiled
// CPU time before the ledger calls it a mismatch.
const ledgerFactor = 2.0

// printLedger asks whether the probes account for the profile: a layer's
// unit cost times its count should land within ledgerFactor of the CPU time
// the traced pass charged to it. A mismatch is reported, not hidden.
func (lr *layerReport) printLedger(w io.Writer) {
	p := map[string]float64{}
	for _, pr := range lr.probes {
		p[pr.name] = pr.value
	}
	if len(p) == 0 {
		return
	}
	win := lr.traced.win
	// Probes are normalised to the reference speed; bring the profile there too.
	toRef := 1 / lr.traced.slowdown
	cpu := func(layers ...string) float64 {
		var s float64
		for _, l := range layers {
			s += lr.attr.shares[l]
		}
		return s * float64(lr.attr.cpuNS) / 1e9 * toRef
	}
	// The operating point nearest the workload: heap depth for sim, table
	// size for core.
	fire := p["sim.schedule_fire_ns.d128"]
	if lr.traced.pendingMax > 2048 {
		fire = p["sim.schedule_fire_ns.d16k"]
	}
	vswitch := (p["core.sender_ns_per_pkt"] + p["core.receiver_ns_per_pkt"]) / 2
	if win.flowsLive < 2000 {
		vswitch = p["core.sender_ns_per_pkt.f100"]
	}
	vswitch -= p["core.passthrough_ns_per_pkt"]
	rows := []struct {
		what      string
		predicted float64 // seconds
		profiled  float64
	}{
		{"sim: schedule_fire_ns × events", fire * float64(win.events) / 1e9, cpu("sim")},
		{"netsim: link_hop_ns × hops + switch_fwd_ns × (hops − pkts)",
			(p["netsim.link_hop_ns"]*float64(win.hops) + p["netsim.switch_fwd_ns"]*float64(max(0, win.hops-win.pkts))) / 1e9, cpu("netsim")},
		{"core+metrics: (core.*_ns_per_pkt − passthrough) × core.pkts", vswitch * float64(win.corePkts) / 1e9, cpu("core", "metrics")},
	}
	fmt.Fprintf(w, "  ledger: probe cost × count against profiled CPU seconds, both at reference speed; beyond ×%.0f is a mismatch\n", ledgerFactor)
	floor := 0.02 * cpu(shareLayers...)
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.predicted < floor && r.profiled < floor:
			verdict = "negligible here"
		case r.predicted > ledgerFactor*r.profiled || r.profiled > ledgerFactor*r.predicted:
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "    %-60s predicted %7.3f s  profiled %7.3f s  %s\n", r.what, r.predicted, r.profiled, verdict)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResultLine(w io.Writer, r *passResult, correct bool, defs []metricDef, vals map[string]float64) error {
	line := resultLine{Correct: correct, Attempted: r.out.opsTried, Failed: r.out.opsFailed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func printErrs(w io.Writer, errs []string) {
	if len(errs) > 0 {
		fmt.Fprintln(w, "INCORRECT:\n  "+strings.Join(errs, "\n  "))
	}
}
