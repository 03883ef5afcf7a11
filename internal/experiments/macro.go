package experiments

import (
	"fmt"

	"acdc/internal/sim"
	"acdc/internal/stats"
	"acdc/internal/topo"
	"acdc/internal/trace"
	"acdc/internal/workload"
)

// Fig18 reproduces Figures 18 and 19: many-to-one incast with 16/32/40/47
// senders. DCTCP and AC/DC keep throughput and fairness at CUBIC's level
// while slashing RTT and eliminating drops; at high fan-in AC/DC's
// byte-granularity RWND floor (1 MSS) beats host DCTCP's 2-packet CWND
// floor, so AC/DC's RTT stays lower as senders scale.
func Fig18(cfg RunConfig) *Result {
	r := newResult("fig18", "Incast: throughput, fairness, RTT, drops",
		"Tput/fairness comparable across schemes (fairness >0.99); at 47 senders DCTCP cuts median RTT 82%, AC/DC 97% vs CUBIC; drop rate 0% for DCTCP and AC/DC")
	fanins := []int{16, 32, 40, 47}
	warm, measure := cfg.scale(100*sim.Millisecond), cfg.scale(200*sim.Millisecond)
	schemes := ThreeSchemes(9000)
	// §5.2: "ACEDC controls RWND (which is in bytes) … RWND's lowest value
	// can be much smaller than 2*MSS". Give AC/DC the sub-MSS floor its
	// byte-granular windows permit; host DCTCP is stuck at 2 packets.
	schemes[2].ACDC.MinRwndBytes = int64((9000 - 40) / 2)
	for _, scheme := range schemes {
		t := stats.NewTable("senders", "avg Mbps", "fairness", "RTT p50 ms", "RTT p99.9 ms", "drop %")
		for _, n := range fanins {
			// n senders, 1 receiver, plus 1 prober host through the same
			// congested downlink.
			net := topo.Star(n+2, scheme.options(cfg, cfg.seed()+int64(n)))
			m := workload.NewManager(net)
			senders := make([]int, n)
			for i := range senders {
				senders[i] = i
			}
			recv := n
			// Dial the prober before congestion exists (sockperf's
			// connection is long-lived in the paper's runs).
			p := workload.NewProber(m, n+1, recv)
			flows := workload.Incast(m, senders, recv)
			net.Sim.RunFor(warm)
			p.Start()
			start := snapshotDelivered(flows)
			// Record the datapath-metrics timeline at the deepest fan-in —
			// the run where ECN marking and window squeezing peak.
			var tl *Telemetry
			if n == fanins[len(fanins)-1] {
				tl = watchFleet(net, fmt.Sprintf("%s incast %d:1", scheme.Name, n), measure/6)
			}
			net.Sim.RunFor(measure)
			p.Stop()
			if tl != nil {
				r.telemetry(tl)
				key := schemeKey(scheme.Name)
				r.Metrics[key+"_ce_fraction"] = tl.CEFraction()
				r.Metrics[key+"_rwnd_rewrites"] = float64(tl.RwndRewrites())
			}
			rates := flowRates(flows, start, measure)
			fair := stats.JainFairness(rates)
			t.Row(n, mean(rates)*1000, fair,
				p.Samples.Percentile(50)/1e6, p.Samples.Percentile(99.9)/1e6,
				net.DropRate()*100)
			key := fmt.Sprintf("%s_%d", schemeKey(scheme.Name), n)
			r.Metrics[key+"_avg_mbps"] = mean(rates) * 1000
			r.Metrics[key+"_fairness"] = fair
			r.Metrics[key+"_rtt_p50_ms"] = p.Samples.Percentile(50) / 1e6
			r.Metrics[key+"_rtt_p999_ms"] = p.Samples.Percentile(99.9) / 1e6
			r.Metrics[key+"_droprate"] = net.DropRate()
		}
		r.section("%s:", scheme.Name)
		r.table(t)
	}
	return r
}

// Fig20 reproduces Figure 20: congest 47 of 48 ports (46 hosts in group A
// send all-to-all plus a 46-to-1 incast into B1) and measure RTT from B2 to
// B1 through the hottest port. CUBIC's 99.9th percentile explodes with its
// ~4% hot-port drop rate; DCTCP and AC/DC stay flat with zero drops.
func Fig20(cfg RunConfig) *Result {
	r := newResult("fig20", "All ports congested: RTT through the hot port",
		"Avg tput ≈ equal (214/214/201 Mbps); CUBIC p99.9 RTT ~100 ms (0.34% loss, 4% on hot port); DCTCP/AC-DC: 0% loss, p99.9 in the low ms")
	groupA := 16
	if cfg.Long {
		groupA = 46
	}
	warm, measure := cfg.scale(100*sim.Millisecond), cfg.scale(200*sim.Millisecond)
	t := stats.NewTable("scheme", "avg flow Mbps", "fairness", "RTT p50 ms", "RTT p99 ms", "RTT p99.9 ms", "drop %")
	for _, scheme := range ThreeSchemes(9000) {
		net := topo.Star(groupA+2, scheme.options(cfg, cfg.seed()))
		m := workload.NewManager(net)
		b1, b2 := groupA, groupA+1
		var flows []*workload.Messenger
		for i := 0; i < groupA; i++ {
			// 4 intra-A flows + 1 incast flow into B1 per host.
			for j := 1; j <= 4; j++ {
				flows = append(flows, workload.Bulk(m, i, (i+j)%groupA))
			}
			flows = append(flows, workload.Bulk(m, i, b1))
		}
		p := workload.NewProber(m, b2, b1) // dialed before congestion
		net.Sim.RunFor(warm)
		p.Start()
		start := snapshotDelivered(flows)
		tl := watchFleet(net, scheme.Name+" all-ports", measure/6)
		net.Sim.RunFor(measure)
		p.Stop()
		r.telemetry(tl)
		rates := flowRates(flows, start, measure)
		fair := stats.JainFairness(rates)
		t.Row(scheme.Name, mean(rates)*1000, fair,
			p.Samples.Percentile(50)/1e6, p.Samples.Percentile(99)/1e6,
			p.Samples.Percentile(99.9)/1e6, net.DropRate()*100)
		key := schemeKey(scheme.Name)
		r.Metrics[key+"_avg_mbps"] = mean(rates) * 1000
		r.Metrics[key+"_rtt_p50_ms"] = p.Samples.Percentile(50) / 1e6
		r.Metrics[key+"_rtt_p999_ms"] = p.Samples.Percentile(99.9) / 1e6
		r.Metrics[key+"_droprate"] = net.DropRate()
	}
	r.table(t)
	return r
}

// macroFCT runs one of the FCT workloads under the three schemes and
// reports mice/background percentiles.
func macroFCT(r *Result, cfg RunConfig, launch func(m *workload.Manager, fcts *workload.FCTs), runFor sim.Duration) {
	t := stats.NewTable("scheme", "mice p50 ms", "mice p99.9 ms", "bg p50 ms", "bg p99.9 ms", "mice n", "bg n")
	for _, scheme := range ThreeSchemes(9000) {
		net := topo.Star(17, scheme.options(cfg, cfg.seed()))
		m := workload.NewManager(net)
		var fcts workload.FCTs
		launch(m, &fcts)
		tl := watchFleet(net, scheme.Name+" fct", runFor/8)
		net.Sim.RunFor(runFor)
		r.telemetry(tl)
		t.Row(scheme.Name,
			fcts.Mice.Percentile(50)/1e6, fcts.Mice.Percentile(99.9)/1e6,
			fcts.Background.Percentile(50)/1e6, fcts.Background.Percentile(99.9)/1e6,
			fcts.Mice.N(), fcts.Background.N())
		key := schemeKey(scheme.Name)
		r.Metrics[key+"_mice_p50_ms"] = fcts.Mice.Percentile(50) / 1e6
		r.Metrics[key+"_mice_p999_ms"] = fcts.Mice.Percentile(99.9) / 1e6
		r.Metrics[key+"_bg_p50_ms"] = fcts.Background.Percentile(50) / 1e6
		r.Sections = append(r.Sections, cdfBlock(scheme.Name+" mice FCT", &fcts.Mice, 1e6, "ms", 10))
	}
	r.table(t)
}

// Fig21 reproduces Figure 21: the concurrent stride workload. DCTCP and
// AC/DC cut mice FCTs by ~75% at the median and >90% at the 99.9th
// percentile; background FCTs are similar or better.
func Fig21(cfg RunConfig) *Result {
	r := newResult("fig21", "Concurrent stride FCTs",
		"Mice: DCTCP/AC-DC reduce median FCT 77%/76% and p99.9 91%/93% vs CUBIC; background flows comparable")
	// Scaled stride: 16MB background (vs 512MB), mice every 2ms (vs 100ms).
	strideCfg := workload.StrideConfig{
		N: 17, BgBytes: 16 << 20, MiceBytes: 16 << 10, MicePeriod: cfg.scale(2 * sim.Millisecond),
	}
	if cfg.Long {
		strideCfg.BgBytes = 128 << 20
	}
	macroFCT(r, cfg, func(m *workload.Manager, fcts *workload.FCTs) {
		workload.Stride(m, strideCfg, fcts)
	}, cfg.scale(400*sim.Millisecond))
	return r
}

// Fig22 reproduces Figure 22: the shuffle workload. Mice improve like
// stride (median −72%, tail −55/−73%); the 512MB shuffle transfers
// themselves complete in near-identical time across schemes.
func Fig22(cfg RunConfig) *Result {
	r := newResult("fig22", "Shuffle FCTs",
		"Mice: DCTCP/AC-DC reduce median FCT 72%/71%, p99.9 55%/73%; large-transfer FCTs almost identical across schemes")
	shufCfg := workload.ShuffleConfig{
		N: 17, BgBytes: 8 << 20, Concurrency: 2,
		MiceBytes: 16 << 10, MicePeriod: cfg.scale(2 * sim.Millisecond),
	}
	if cfg.Long {
		shufCfg.BgBytes = 64 << 20
	}
	macroFCT(r, cfg, func(m *workload.Manager, fcts *workload.FCTs) {
		workload.Shuffle(m, shufCfg, fcts, nil)
	}, cfg.scale(400*sim.Millisecond))
	return r
}

// Fig23 reproduces Figure 23: closed-loop trace-driven workloads over the
// web-search and data-mining flow-size distributions; mice (<10KB) FCT CDFs.
func Fig23(cfg RunConfig) *Result {
	r := newResult("fig23", "Trace-driven (web-search, data-mining) mice FCTs",
		"Web-search: median mice FCT −77%/−76% (DCTCP/AC-DC), p99.9 −50%/−55%; data-mining: median −72%/−73%, p99.9 −36%/−53%")
	for _, d := range []*trace.Dist{trace.WebSearch(), trace.DataMining()} {
		r.section("--- %s workload ---", d.Name)
		tcfg := workload.TraceConfig{N: 17, AppsPerServer: 5, Dist: d}
		macroFCT(r, cfg, func(m *workload.Manager, fcts *workload.FCTs) {
			workload.TraceDriven(m, tcfg, fcts)
		}, cfg.scale(400*sim.Millisecond))
		// Re-key the metrics by distribution (macroFCT wrote generic keys).
		for _, k := range []string{"cubic", "dctcp", "acdc"} {
			for _, suffix := range []string{"_mice_p50_ms", "_mice_p999_ms", "_bg_p50_ms"} {
				if v, ok := r.Metrics[k+suffix]; ok {
					r.Metrics[d.Name+"_"+k+suffix] = v
					delete(r.Metrics, k+suffix)
				}
			}
		}
	}
	return r
}
