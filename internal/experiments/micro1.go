package experiments

import (
	"fmt"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/sim"
	"acdc/internal/stats"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

// fig1CCs is the paper's Figure 1 stack assortment.
var fig1CCs = []string{"illinois", "cubic", "reno", "vegas", "highspeed"}

// runDumbbellOnce builds a dumbbell with per-sender guest configs, runs bulk
// flows with a warmup, and returns per-flow Gbps over the measurement window
// plus the net (for counters).
func runDumbbellOnce(scheme Scheme, senderCC []string, cfg RunConfig, testSeed int64,
	warm, measure sim.Duration) ([]float64, *topo.Net) {
	pairs := len(senderCC)
	o := scheme.options(cfg, testSeed)
	if senderCC != nil {
		base := scheme.Guest
		o.GuestFor = func(h int) *tcpstack.Config {
			if h < pairs && senderCC[h] != "" {
				g := base
				g.CC = senderCC[h]
				if senderCC[h] == "dctcp" && scheme.ACDC == nil {
					g.ECN = tcpstack.ECNDCTCP
				}
				return &g
			}
			return nil
		}
	}
	net := topo.Dumbbell(pairs, o)
	m := workload.NewManager(net)
	flows := make([]*workload.Messenger, pairs)
	// Jittered starts: repeated tests differ, as they do on hardware.
	for i := 0; i < pairs; i++ {
		i := i
		net.Sim.Schedule(sim.Duration(net.Sim.Rand().Int63n(int64(2*sim.Millisecond))), func() {
			flows[i] = workload.Bulk(m, i, pairs+i)
		})
	}
	net.Sim.RunFor(warm)
	start := snapshotDelivered(flows)
	net.Sim.RunFor(measure)
	return flowRates(flows, start, measure), net
}

// Fig1 reproduces Figure 1: five flows with five different congestion
// controls on the dumbbell (a), versus all flows CUBIC (b). Aggressive
// stacks (Illinois, HighSpeed) grab bandwidth; homogeneous CUBIC is fairer.
func Fig1(cfg RunConfig) *Result {
	r := newResult("fig1", "Different congestion controls lead to unfairness",
		"Fig 1a: Illinois/HighSpeed ≈ 3-4 Gbps while Vegas/Reno starve; Fig 1b: all-CUBIC roughly fair around 2 Gbps")
	tests := 5
	if cfg.Long {
		tests = 10
	}
	warm, measure := cfg.scale(100*sim.Millisecond), cfg.scale(300*sim.Millisecond)

	ta := stats.NewTable(append([]string{"test"}, fig1CCs...)...)
	var mixFair, perCC = []float64{}, map[string][]float64{}
	for test := 0; test < tests; test++ {
		rates, _ := runDumbbellOnce(SchemeCUBIC(9000), fig1CCs, cfg, cfg.seed()+int64(test), warm, measure)
		row := make([]any, 0, 6)
		row = append(row, test+1)
		for i, g := range gbps(rates) {
			row = append(row, g)
			perCC[fig1CCs[i]] = append(perCC[fig1CCs[i]], rates[i])
		}
		ta.Row(row...)
		mixFair = append(mixFair, stats.JainFairness(rates))
	}
	r.section("Fig 1a — five different CCs, per-flow Gbps:")
	r.table(ta)

	tb := stats.NewTable("test", "max", "min", "mean", "median")
	var cubicFair []float64
	for test := 0; test < tests; test++ {
		rates, _ := runDumbbellOnce(SchemeCUBIC(9000), []string{"cubic", "cubic", "cubic", "cubic", "cubic"},
			cfg, cfg.seed()+100+int64(test), warm, measure)
		var s stats.Sample
		for _, x := range rates {
			s.Add(x)
		}
		tb.Row(test+1, s.Max(), s.Min(), s.Mean(), s.Median())
		cubicFair = append(cubicFair, stats.JainFairness(rates))
	}
	r.section("Fig 1b — all CUBIC, per-test spread (Gbps):")
	r.table(tb)

	r.Metrics["mixed_fairness"] = mean(mixFair)
	r.Metrics["cubic_fairness"] = mean(cubicFair)
	r.Metrics["illinois_mean_gbps"] = mean(perCC["illinois"])
	r.Metrics["vegas_mean_gbps"] = mean(perCC["vegas"])
	r.Metrics["highspeed_mean_gbps"] = mean(perCC["highspeed"])
	return r
}

// Fig2 reproduces Figure 2: even when CUBIC is rate-limited to its exact
// 2 Gbps fair share (the paper uses hardware limiters; we interpose a
// token-bucket Shaper per sender), it fills the limiter/switch buffers and
// RTT spreads over milliseconds, while DCTCP — with no rate limiting at all
// — keeps RTT in the microseconds.
func Fig2(cfg RunConfig) *Result {
	r := newResult("fig2", "CUBIC fills buffers; DCTCP keeps RTT low",
		"CUBIC (RL=2Gbps) RTT spread over 1–10 ms; DCTCP concentrated well below 1 ms")
	warm, measure := cfg.scale(100*sim.Millisecond), cfg.scale(300*sim.Millisecond)
	configs := []struct {
		name   string
		scheme Scheme
		shaped bool
	}{
		{"CUBIC (RL=2Gbps)", SchemeCUBIC(9000), true},
		{"CUBIC (unlimited)", SchemeCUBIC(9000), false},
		{"DCTCP", SchemeDCTCP(9000), false},
	}
	for _, c := range configs {
		rtt := runDumbbellRTT(c.scheme, cfg, warm, measure, c.shaped)
		r.section("%s: %s", c.name, rttSummary(rtt))
		r.Sections = append(r.Sections, cdfBlock(c.name+" RTT", rtt, 1e6, "ms", 10))
		key := c.name
		if c.shaped {
			key = "CUBIC_RL"
		} else if c.name == "CUBIC (unlimited)" {
			key = "CUBIC"
		}
		r.Metrics[key+"_p50_ms"] = rtt.Percentile(50) / 1e6
		r.Metrics[key+"_p99_ms"] = rtt.Percentile(99) / 1e6
	}
	return r
}

// runDumbbellRTT runs 5 bulk flows and an RTT prober across the bottleneck,
// returning RTT samples from the measurement window. With shaped set, each
// sender's uplink passes a 2 Gbps token-bucket limiter with a 2MB buffer
// (a hardware rate limiter's queue).
func runDumbbellRTT(scheme Scheme, cfg RunConfig, warm, measure sim.Duration, shaped bool) *stats.Sample {
	net := topo.Dumbbell(5, scheme.options(cfg, cfg.seed()))
	if shaped {
		for i := 0; i < 5; i++ {
			nic := net.Hosts[i].NIC
			sh := netsim.NewShaper(net.Sim, 2e9, 64<<10, nic.Dst)
			sh.MaxQueueBytes = 512 << 10
			nic.Dst = sh
		}
	}
	m, _ := dumbbellFlows(net, 5)
	net.Sim.RunFor(warm)
	p := workload.NewProber(m, 0, 5) // s1 → r1 across the trunk
	p.Start()
	net.Sim.RunFor(measure)
	p.Stop()
	return p.Samples
}

// Fig6 reproduces Figure 6: the throughput of a single flow on an otherwise
// idle path when (a) the host bounds CWND via snd_cwnd_clamp versus (b)
// AC/DC bounds RWND — the two mechanisms must produce the same curve.
func Fig6(cfg RunConfig) *Result {
	r := newResult("fig6", "Bounding RWND is equivalent to bounding CWND",
		"Throughput rises with the clamp until it saturates the link; CWND and RWND curves coincide (both MTUs)")
	// Sweeps start at 2 MSS: the host stack cannot express cwnd=1 (Linux
	// floors at 2 packets outside timeout recovery), so there is no
	// host-side point to compare the RWND bound against below 2.
	for _, mtu := range []int{1500, 9000} {
		var clamps []int
		if mtu == 1500 {
			clamps = []int{2, 5, 10, 25, 50, 100, 150, 200, 250}
		} else {
			clamps = []int{2, 3, 4, 6, 8, 10, 12, 16}
		}
		t := stats.NewTable("clamp(MSS)", "cwnd-bound Gbps", "rwnd-bound Gbps")
		var maxRel float64
		for _, c := range clamps {
			a := fig6Tput(cfg, mtu, c, false)
			b := fig6Tput(cfg, mtu, c, true)
			t.Row(c, a, b)
			rel := (a - b) / a
			if rel < 0 {
				rel = -rel
			}
			if rel > maxRel {
				maxRel = rel
			}
		}
		r.section("MTU %d:", mtu)
		r.table(t)
		r.Metrics[fmt.Sprintf("max_rel_diff_mtu%d", mtu)] = maxRel
	}
	return r
}

func fig6Tput(cfg RunConfig, mtu, clampMSS int, viaRwnd bool) float64 {
	guest := guestCfg(mtu, "cubic", tcpstack.ECNOff)
	o := topo.Options{Guest: guest, Seed: cfg.seed(), Env: cfg.Env}
	if viaRwnd {
		ac := core.DefaultConfig()
		ac.MTU = mtu
		mss := int64(mtu - 40)
		ac.FlowPolicy = func(core.FlowKey) core.Policy {
			p := core.DefaultPolicy()
			p.RwndClampBytes = int64(clampMSS) * mss
			return p
		}
		o.ACDC = &ac
	} else {
		guest.CwndClamp = float64(clampMSS)
		o.Guest = guest
	}
	net := topo.Star(2, o)
	m := workload.NewManager(net)
	f := workload.Bulk(m, 0, 1)
	warm, measure := cfg.scale(30*sim.Millisecond), cfg.scale(100*sim.Millisecond)
	net.Sim.RunFor(warm)
	start := f.Delivered()
	net.Sim.RunFor(measure)
	return float64(f.Delivered()-start) * 8 / measure.Seconds() / 1e9
}

// Fig8 reproduces Figure 8 and the §5.1 "canonical topologies" text: on the
// dumbbell, AC/DC's per-flow throughput equals CUBIC's and DCTCP's
// (~2 Gbps), while its RTT matches DCTCP and beats CUBIC by an order of
// magnitude.
func Fig8(cfg RunConfig) *Result {
	r := newResult("fig8", "Dumbbell: AC/DC matches DCTCP throughput and RTT",
		"All schemes ≈1.98 Gbps per flow; RTT: CUBIC ~3 ms, DCTCP and AC/DC ~100–300 µs")
	warm, measure := cfg.scale(100*sim.Millisecond), cfg.scale(300*sim.Millisecond)
	t := stats.NewTable("scheme", "avg Gbps", "fairness", "RTT p50 ms", "RTT p99.9 ms", "drop rate")
	for _, scheme := range ThreeSchemes(9000) {
		net := topo.Dumbbell(5, scheme.options(cfg, cfg.seed()))
		m, flows := dumbbellFlows(net, 5)
		net.Sim.RunFor(warm)
		p := workload.NewProber(m, 0, 5)
		p.Start()
		start := snapshotDelivered(flows)
		tl := watchFleet(net, scheme.Name+" dumbbell", measure/6)
		net.Sim.RunFor(measure)
		p.Stop()
		r.telemetry(tl)
		rates := flowRates(flows, start, measure)
		t.Row(scheme.Name, mean(rates), stats.JainFairness(rates),
			p.Samples.Percentile(50)/1e6, p.Samples.Percentile(99.9)/1e6, net.DropRate())
		r.Sections = append(r.Sections, cdfBlock(scheme.Name+" RTT", p.Samples, 1e6, "ms", 10))
		key := schemeKey(scheme.Name)
		r.Metrics[key+"_avg_gbps"] = mean(rates)
		r.Metrics[key+"_fairness"] = stats.JainFairness(rates)
		r.Metrics[key+"_rtt_p50_ms"] = p.Samples.Percentile(50) / 1e6
		r.Metrics[key+"_rtt_p999_ms"] = p.Samples.Percentile(99.9) / 1e6
	}
	r.table(t)
	return r
}

func schemeKey(name string) string {
	switch name {
	case "AC/DC":
		return "acdc"
	case "DCTCP":
		return "dctcp"
	default:
		return "cubic"
	}
}

// ParkingLot reproduces the §5.1 parking-lot numbers: flows crossing
// different numbers of bottlenecks still share fairly under DCTCP/AC-DC
// (index 0.99) while CUBIC is less fair, and RTTs mirror Figure 8.
func ParkingLot(cfg RunConfig) *Result {
	r := newResult("parkinglot", "Parking lot: multi-bottleneck tput/fairness/RTT",
		"CUBIC: fairness 0.94, RTT ~3.3 ms; DCTCP/AC-DC: fairness 0.99, p50 RTT 124–136 µs")
	warm, measure := cfg.scale(100*sim.Millisecond), cfg.scale(300*sim.Millisecond)
	t := stats.NewTable("scheme", "avg Gbps", "fairness", "RTT p50 ms", "RTT p99.9 ms")
	for _, scheme := range ThreeSchemes(9000) {
		net := topo.ParkingLot(scheme.options(cfg, cfg.seed()))
		m := workload.NewManager(net)
		flows := make([]*workload.Messenger, 5)
		for i := 0; i < 5; i++ {
			flows[i] = workload.Bulk(m, i+1, 0)
		}
		net.Sim.RunFor(warm)
		p := workload.NewProber(m, 5, 0) // deepest sender → receiver
		p.Start()
		start := snapshotDelivered(flows)
		net.Sim.RunFor(measure)
		p.Stop()
		rates := flowRates(flows, start, measure)
		t.Row(scheme.Name, mean(rates), stats.JainFairness(rates),
			p.Samples.Percentile(50)/1e6, p.Samples.Percentile(99.9)/1e6)
		key := schemeKey(scheme.Name)
		r.Metrics[key+"_fairness"] = stats.JainFairness(rates)
		r.Metrics[key+"_rtt_p50_ms"] = p.Samples.Percentile(50) / 1e6
	}
	r.table(t)
	return r
}
