package acdc

// One benchmark per table and figure in the paper's evaluation (§5), plus
// the ablation benches called out in DESIGN.md §5. Simulation benches run a
// shortened version of the corresponding experiment per iteration and report
// the headline quantity via b.ReportMetric, so `go test -bench=.` regenerates
// the whole evaluation; `cmd/acdcsim` produces the full tables. The Figure
// 11/12 per-packet datapath cost is measured by bench/'s core.*_ns_per_pkt
// probes.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"acdc/internal/core"
	"acdc/internal/experiments"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/udp"
	"acdc/internal/workload"
)

// quick runs one experiment per outer iteration and reports chosen metrics.
func quickExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(experiments.RunConfig{Seed: int64(i + 1)})
	}
	for _, m := range metrics {
		b.ReportMetric(last.Metrics[m], m)
	}
}

func BenchmarkFig01Unfairness(b *testing.B) {
	quickExperiment(b, "fig1", "mixed_fairness", "cubic_fairness")
}

func BenchmarkFig02BufferFill(b *testing.B) {
	quickExperiment(b, "fig2", "CUBIC_p50_ms", "DCTCP_p50_ms")
}

func BenchmarkFig06RwndClamp(b *testing.B) {
	quickExperiment(b, "fig6", "max_rel_diff_mtu9000")
}

func BenchmarkFig08Dumbbell(b *testing.B) {
	quickExperiment(b, "fig8",
		"cubic_rtt_p50_ms", "dctcp_rtt_p50_ms", "acdc_rtt_p50_ms", "acdc_avg_gbps")
}

func BenchmarkParkingLot(b *testing.B) {
	quickExperiment(b, "parkinglot", "acdc_fairness", "cubic_fairness")
}

func BenchmarkFig09Tracking(b *testing.B) {
	quickExperiment(b, "fig9", "tracking_rel_err_p50")
}

func BenchmarkFig10Limiter(b *testing.B) {
	quickExperiment(b, "fig10", "frac_rwnd_limiting")
}

func BenchmarkFig13QoS(b *testing.B) {
	quickExperiment(b, "fig13", "combo5_f1_gbps", "combo5_f5_gbps")
}

func BenchmarkFig14Convergence(b *testing.B) {
	quickExperiment(b, "fig14", "acdc_fairness_5flows", "cubic_fairness_5flows")
}

func BenchmarkFig15EcnCoexist(b *testing.B) {
	quickExperiment(b, "fig15", "native_cubic_gbps", "acdc_cubic_gbps")
}

func BenchmarkFig17MixedFairness(b *testing.B) {
	quickExperiment(b, "fig17", "acdc_mixed_fairness", "dctcp_fairness")
}

func BenchmarkFig18Incast(b *testing.B) {
	quickExperiment(b, "fig18",
		"cubic_47_rtt_p50_ms", "dctcp_47_rtt_p50_ms", "acdc_47_rtt_p50_ms")
}

func BenchmarkFig20Congested(b *testing.B) {
	quickExperiment(b, "fig20", "cubic_rtt_p999_ms", "acdc_rtt_p999_ms")
}

func BenchmarkFig21Stride(b *testing.B) {
	quickExperiment(b, "fig21", "cubic_mice_p50_ms", "acdc_mice_p50_ms")
}

func BenchmarkFig22Shuffle(b *testing.B) {
	quickExperiment(b, "fig22", "cubic_mice_p999_ms", "acdc_mice_p999_ms")
}

func BenchmarkFig23Traces(b *testing.B) {
	quickExperiment(b, "fig23",
		"web-search_cubic_mice_p50_ms", "web-search_acdc_mice_p50_ms")
}

func BenchmarkTable1Variants(b *testing.B) {
	quickExperiment(b, "table1",
		"cubics_mtu9000_rtt_p50_us", "dctcps_mtu9000_rtt_p50_us", "cubic_mtu9000_rtt_p50_us")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPACKvsFACK compares feedback piggybacking against
// dedicated feedback packets: FACK-only doubles the ACK-path packet count
// but keeps the congestion-control behaviour (queue, throughput) intact.
func BenchmarkAblationPACKvsFACK(b *testing.B) {
	run := func(disablePACK bool) (gbps float64, extraPkts float64) {
		scheme := experiments.SchemeACDC(9000, "cubic", tcpstack.ECNOff)
		scheme.ACDC.DisablePACK = disablePACK
		net := topo.Star(3, topo.Options{Guest: scheme.Guest, ACDC: scheme.ACDC, RED: scheme.RED, Seed: 1})
		m := workload.NewManager(net)
		f1 := workload.Bulk(m, 0, 2)
		f2 := workload.Bulk(m, 1, 2)
		net.Sim.RunFor(80 * sim.Millisecond)
		gb := float64(f1.Delivered()+f2.Delivered()) * 8 / net.Sim.Now().Seconds() / 1e9
		return gb, float64(net.ACDC[2].Stats().FacksSent)
	}
	for i := 0; i < b.N; i++ {
		gPack, _ := run(false)
		gFack, facks := run(true)
		b.ReportMetric(gPack, "pack_gbps")
		b.ReportMetric(gFack, "fack_gbps")
		b.ReportMetric(facks, "facks_sent")
	}
}

// BenchmarkAblationCutGuard removes the once-per-window cut guard: every
// marked ACK then shrinks the window multiplicatively. At datacenter RTTs
// throughput barely moves (the shorter queue re-clocks ACKs just as fast);
// the guard's role is keeping the operating queue at DCTCP's intended
// K-proportional point instead of pinned at the window floor.
func BenchmarkAblationCutGuard(b *testing.B) {
	run := func(cutEveryAck bool) float64 {
		scheme := experiments.SchemeACDC(9000, "cubic", tcpstack.ECNOff)
		scheme.ACDC.CutEveryAck = cutEveryAck
		net := topo.Star(3, topo.Options{Guest: scheme.Guest, ACDC: scheme.ACDC, RED: scheme.RED, Seed: 1})
		m := workload.NewManager(net)
		f1 := workload.Bulk(m, 0, 2)
		f2 := workload.Bulk(m, 1, 2)
		net.Sim.RunFor(80 * sim.Millisecond)
		return float64(f1.Delivered()+f2.Delivered()) * 8 / net.Sim.Now().Seconds() / 1e9
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "guarded_gbps")
		b.ReportMetric(run(true), "unguarded_gbps")
	}
}

// BenchmarkAblationPolicing measures what a non-conforming (RWND-ignoring)
// guest does to the bottleneck queue with and without policing.
func BenchmarkAblationPolicing(b *testing.B) {
	run := func(police bool) (maxQ float64) {
		scheme := experiments.SchemeACDC(9000, "cubic", tcpstack.ECNOff)
		scheme.Guest.IgnoreRwnd = true
		scheme.ACDC.Police = police
		net := topo.Star(3, topo.Options{Guest: scheme.Guest, ACDC: scheme.ACDC, RED: scheme.RED, Seed: 1})
		m := workload.NewManager(net)
		workload.Bulk(m, 0, 2)
		workload.Bulk(m, 1, 2)
		net.Sim.RunFor(80 * sim.Millisecond)
		return float64(net.Switches[0].Port(2).Stats.MaxQueueBytes)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true)/1024, "policed_maxq_kb")
		b.ReportMetric(run(false)/1024, "unpoliced_maxq_kb")
	}
}

// BenchmarkAblationChecksum compares incremental RWND-rewrite checksum
// updates against full header recomputation — the fast-path trick §4 relies
// on.
func BenchmarkAblationChecksum(b *testing.B) {
	p := packet.Build(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.NotECT, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, Window: 65535}, 0)
	ip := p.IP()
	ps := ip.PseudoHeaderSum(ip.TotalLen() - uint16(ip.HeaderLen()))
	t := ip.TCP()
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.SetWindow(uint16(i))
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint16(p.Buf[packet.IPv4HeaderLen+14:], uint16(i))
			t.ComputeChecksum(ps)
		}
	})
}

// BenchmarkAblationFlowTable compares the sharded flow table against a
// single-mutex map under parallel lookups (why §4 uses RCU/sharding).
func BenchmarkAblationFlowTable(b *testing.B) {
	keys := make([]core.FlowKey, 10000)
	for i := range keys {
		keys[i] = core.FlowKey{Src: packet.Addr(i), Dst: packet.Addr(i + 1),
			SPort: uint16(i), DPort: 80}
	}
	// Key is a promoted field of Flow, so it cannot be set in a literal.
	flow := func(k core.FlowKey) *core.Flow {
		f := new(core.Flow)
		f.Key = k
		return f
	}
	b.Run("sharded", func(b *testing.B) {
		b.SetParallelism(16) // OVS serves many NIC queues; oversubscribe cores
		tb := core.NewTable()
		for _, k := range keys {
			k := k
			tb.GetOrCreate(k, func() *core.Flow { return flow(k) })
		}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tb.Get(keys[i%len(keys)])
				i++
			}
		})
	})
	b.Run("global-mutex", func(b *testing.B) {
		b.SetParallelism(16)
		var mu sync.Mutex
		mp := make(map[core.FlowKey]*core.Flow, len(keys))
		for _, k := range keys {
			mp[k] = flow(k)
		}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mu.Lock()
				_ = mp[keys[i%len(keys)]]
				mu.Unlock()
				i++
			}
		})
	})
}

// BenchmarkAblationRwndFloor sweeps the enforcement floor in deep incast:
// byte-granularity floors below host DCTCP's 2-packet bound are what keep
// AC/DC's incast RTT low (§5.2).
func BenchmarkAblationRwndFloor(b *testing.B) {
	floors := []int64{4480, 8960, 17920} // ½, 1, 2 MSS
	for _, fl := range floors {
		fl := fl
		b.Run(fmt.Sprintf("floor=%dB", fl), func(b *testing.B) {
			var rtt float64
			for i := 0; i < b.N; i++ {
				scheme := experiments.SchemeACDC(9000, "cubic", tcpstack.ECNOff)
				scheme.ACDC.MinRwndBytes = fl
				net := topo.Star(34, topo.Options{Guest: scheme.Guest, ACDC: scheme.ACDC, RED: scheme.RED, Seed: 1})
				m := workload.NewManager(net)
				senders := make([]int, 32)
				for j := range senders {
					senders[j] = j
				}
				p := workload.NewProber(m, 33, 32)
				workload.Incast(m, senders, 32)
				net.Sim.RunFor(60 * sim.Millisecond)
				p.Start()
				net.Sim.RunFor(60 * sim.Millisecond)
				p.Stop()
				rtt = p.Samples.Percentile(50) / 1e6
			}
			b.ReportMetric(rtt, "rtt_p50_ms")
		})
	}
}

// BenchmarkExtensionUDPTunnel measures the future-work UDP tunnel: a
// congestion-blind 9 Gbps blaster against a TCP tenant, with and without
// tunnel enforcement (fabric drops must go to zero with it).
func BenchmarkExtensionUDPTunnel(b *testing.B) {
	run := func(tunnel bool) (tcpG, udpG, fabricDrops float64) {
		ac := core.DefaultConfig()
		ac.UDPTunnel = tunnel
		net := topo.Star(3, topo.Options{
			Guest: tcpstack.DefaultConfig(),
			ACDC:  &ac,
			RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
			Seed:  3,
		})
		eps := make([]*udp.Endpoint, 3)
		for i := range eps {
			eps[i] = udp.NewEndpoint(net.Sim, net.Hosts[i])
		}
		m := workload.NewManager(net)
		f := workload.Bulk(m, 0, 2)
		var udpBytes int64
		eps[2].OnRecv = func(_ packet.Addr, _, _ uint16, n int) { udpBytes += int64(n) }
		eps[1].Blast(net.Addr(2), 6000, 7000, 8960, 9e9, 150*sim.Millisecond)
		net.Sim.RunFor(150 * sim.Millisecond)
		secs := net.Sim.Now().Seconds()
		return float64(f.Delivered()) * 8 / secs / 1e9,
			float64(udpBytes) * 8 / secs / 1e9,
			float64(net.TotalDrops())
	}
	for i := 0; i < b.N; i++ {
		tOff, uOff, dOff := run(false)
		tOn, uOn, dOn := run(true)
		b.ReportMetric(tOff, "notunnel_tcp_gbps")
		b.ReportMetric(uOff, "notunnel_udp_gbps")
		b.ReportMetric(dOff, "notunnel_fabric_drops")
		b.ReportMetric(tOn, "tunnel_tcp_gbps")
		b.ReportMetric(uOn, "tunnel_udp_gbps")
		b.ReportMetric(dOn, "tunnel_fabric_drops")
	}
}
