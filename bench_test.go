package acdc

// One benchmark per table and figure in the paper's evaluation (§5), plus
// the Figure 11/12 datapath-overhead microbenchmarks and the ablation
// benches called out in DESIGN.md §5. Simulation benches run a shortened
// version of the corresponding experiment per iteration and report the
// headline quantity via b.ReportMetric, so `go test -bench=.` regenerates
// the whole evaluation; `cmd/acdcsim` produces the full tables.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"acdc/internal/benchkit"
	"acdc/internal/core"
	"acdc/internal/experiments"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/stats"
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

// --- Figures 11 & 12: datapath computational overhead ---
//
// The paper measures whole-system CPU with sar and reports < 1 percentage
// point of overhead. Here we measure the per-segment cost of the AC/DC
// datapath directly, against a baseline that parses headers the way any
// vSwitch must, across flow-table populations from 100 to 10,000. The
// fixture lives in internal/benchkit so cmd/acdcbench reports exactly the
// same loops.

func newOverheadBench(nFlows int) *benchkit.OverheadBench {
	return benchkit.NewOverheadBench(nFlows)
}

var overheadSizes = []int{100, 500, 1000, 5000, 10000}

func BenchmarkFig11SenderOverhead(b *testing.B) {
	for _, n := range overheadSizes {
		ob := newOverheadBench(n)
		b.Run(fmt.Sprintf("acdc/flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := i % n
				benchkit.BumpSeq(ob.Data[f], 1460)
				ob.V.EgressPath(ob.Data[f])
				benchkit.BumpSeq(ob.Acks[f], 0)
				ob.CloneIngress(ob.Acks[f])
			}
		})
		b.Run(fmt.Sprintf("baseline/flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := i % n
				benchkit.BumpSeq(ob.Data[f], 1460)
				benchkit.BaselineForward(ob.Data[f])
				q := ob.Pool.Clone(ob.Acks[f])
				benchkit.BaselineForward(q)
				ob.Pool.Put(q)
			}
		})
	}
}

func BenchmarkFig12ReceiverOverhead(b *testing.B) {
	for _, n := range overheadSizes {
		ob := newOverheadBench(n)
		b.Run(fmt.Sprintf("acdc/flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := i % n
				benchkit.BumpSeq(ob.InData[f], 1460)
				ob.V.IngressPath(ob.InData[f])
				ob.CloneEgress(ob.OutAck[f])
			}
		})
		b.Run(fmt.Sprintf("baseline/flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := i % n
				benchkit.BumpSeq(ob.InData[f], 1460)
				benchkit.BaselineForward(ob.InData[f])
				q := ob.Pool.Clone(ob.OutAck[f])
				benchkit.BaselineForward(q)
				ob.Pool.Put(q)
			}
		})
	}
}

// batchSizes is the batch-size scaling curve: batch=1 exercises the
// per-packet fallback inside the batch entry points; 8/32/128 show how much
// of the per-packet cost (lookups, shard locks, metric increments) the batch
// path amortizes.
var batchSizes = []int{1, 8, 32, 128}

// batchTrain is the per-flow train length of the batch benchmark stream: a
// burst handed to the datapath is consecutive segments of the same flow in
// trains of 8 (the shape a ring drain of a sender's cwnd burst or a
// GRO-coalesced receive produces), cycling through all 10k flows. The
// perpacket subbenchmark consumes the identical stream one packet at a time,
// so the two differ only in the processing API.
const batchTrain = 8

// BenchmarkFig11SenderBatch is the Figure 11 sender-side loop through
// EgressBatch/IngressBatch at 10k flows, across the batch-size curve. Each
// batch=k iteration processes 2·k packets (k data segments out, k
// PACK-carrying ACKs in); divide ns/op by 2·k for ns/packet and compare
// against the perpacket subbenchmark (2 packets per iteration).
func BenchmarkFig11SenderBatch(b *testing.B) {
	const n = 10000
	ob := benchkit.NewOverheadBenchTrains(n, batchTrain)
	b.Run(fmt.Sprintf("perpacket/flows=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ob.SenderStreamRound()
		}
	})
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d/flows=%d", k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ob.SenderStreamBatch(k)
			}
		})
	}
}

// BenchmarkFig12ReceiverBatch is the receiver-side counterpart.
func BenchmarkFig12ReceiverBatch(b *testing.B) {
	const n = 10000
	ob := benchkit.NewOverheadBenchTrains(n, batchTrain)
	b.Run(fmt.Sprintf("perpacket/flows=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ob.ReceiverStreamRound()
		}
	})
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d/flows=%d", k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ob.ReceiverStreamBatch(k)
			}
		})
	}
}

// BenchmarkTier100kBatch is the 100k-flow tier: sender-side rounds through a
// table holding 200k entries (two directions per flow), per-packet vs
// batch=32. The 1M tier lives in cmd/acdcbench (too slow to set up per `go
// test` run); this one doubles as the CI batching-regression smoke.
func BenchmarkTier100kBatch(b *testing.B) {
	const n = 100_000
	ob := benchkit.NewTierBench(n)
	b.Run("perpacket", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ob.SenderRound(i % n)
		}
	})
	b.Run("batch=32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ob.SenderRoundBatch((i*32)%n, 32)
		}
	})
}

// BenchmarkDatapathWithMetrics isolates the cost of the observability layer:
// the Figure 11 sender-side loop with the metrics registry enabled (the
// default) versus DisableMetrics (every instrument nil, updates compile to a
// predicted branch). The enabled/disabled delta is the metrics overhead and
// must stay under 5% of the per-segment datapath cost.
func BenchmarkDatapathWithMetrics(b *testing.B) {
	for _, n := range []int{100, 10000} {
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"enabled", false}, {"disabled", true}} {
			ob := benchkit.NewOverheadBenchCfg(n, func(c *core.Config) { c.DisableMetrics = mode.disable })
			b.Run(fmt.Sprintf("%s/flows=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f := i % n
					benchkit.BumpSeq(ob.Data[f], 1460)
					ob.V.EgressPath(ob.Data[f])
					benchkit.BumpSeq(ob.Acks[f], 0)
					ob.CloneIngress(ob.Acks[f])
				}
			})
		}
	}
}

// BenchmarkFig11Concurrent drives the sender-side datapath from multiple
// goroutines, the way OVS processes multiple NIC queues, exercising the
// sharded flow table.
func BenchmarkFig11Concurrent(b *testing.B) {
	ob := newOverheadBench(10000)
	// The packet pool is single-threaded by design; detach it so concurrent
	// clones fall back to plain (thread-safe) allocation.
	ob.V.Host.Pool = nil
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			f := (i * 7) % 10000
			ob.V.IngressPath(ob.Acks[f].Clone())
		}
	})
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

// Sanity: the overhead bench fixture produces live state.
func TestOverheadBenchFixture(t *testing.T) {
	ob := newOverheadBench(100)
	if ob.V.Table.Len() < 200 { // two directions per flow
		t.Fatalf("fixture table has %d entries", ob.V.Table.Len())
	}
	out := ob.V.Ingress(ob.Acks[0].Clone())
	if len(out) != 1 {
		t.Fatal("ACK consumed unexpectedly")
	}
	if ob.V.Stats().PacksConsumed == 0 {
		t.Fatal("PACK not consumed")
	}
	var sm stats.Sample
	sm.Add(1)
	_ = sm
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
