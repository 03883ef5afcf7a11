package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"acdc/internal/daemon"
	"acdc/internal/metrics"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/stats"
	"acdc/internal/tcpstack"
)

// Layer probes: timed calls into each layer's public functions, at operating
// points read off the workloads. Each value is the calibration-normalised
// median of probeReps repetitions. A probe prices one layer's unit of work
// so the ledger can ask whether cost × count adds up to the layer's profiled
// CPU time; it is not an end-to-end number.
const probeReps = 20

// probe builds its fixture once (untimed) and returns rep, which performs a
// batch of operations and reports how many and how long.
type probe struct {
	name, unit string // unit: ns or us per operation
	build      func() (rep func() (ops int, d time.Duration))
}

type probeResult struct {
	name, unit string
	value      float64 // per operation, normalised
	allocs     float64 // per operation
}

func runProbe(p probe) probeResult {
	rep := p.build()
	rep() // warm caches, pools and lazy state
	runtime.GC()
	slow := slowdown()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var vals stats.Sample
	total := 0
	for i := 0; i < probeReps; i++ {
		ops, d := rep()
		vals.Add(float64(d.Nanoseconds()) / float64(ops))
		total += ops
	}
	runtime.ReadMemStats(&m1)
	v := vals.Median() / slow
	if p.unit == "us" {
		v /= 1e3
	}
	return probeResult{p.name, p.unit, v, float64(m1.Mallocs-m0.Mallocs) / float64(total)}
}

func runProbes() []probeResult {
	out := make([]probeResult, len(probes))
	for i, p := range probes {
		out[i] = runProbe(p)
	}
	return out
}

// timeN times n calls of op.
func timeN(n int, op func(i int)) (int, time.Duration) {
	t := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return n, time.Since(t)
}

var probes = []probe{
	// sim: the hold model (each fired event schedules one more) at the heap
	// depths of incast47 and mice-churn, and the lazy timer push-out.
	{"sim.schedule_fire_ns.d128", "ns", holdModel(128)},
	{"sim.schedule_fire_ns.d16k", "ns", holdModel(16 << 10)},
	{"sim.timer_reset_ns", "ns", func() func() (int, time.Duration) {
		s := sim.New(1)
		t := sim.NewTimer(s, func() {})
		t.Reset(10 * sim.Millisecond)
		return func() (int, time.Duration) {
			return timeN(1_000_000, func(i int) { t.Reset(10*sim.Millisecond + sim.Duration(i)) })
		}
	}},

	{"packet.build_ns", "ns", func() func() (int, time.Duration) {
		pool := packet.NewPool()
		f := packet.TCPFields{SrcPort: 40000, DstPort: 5001, Seq: 1, Ack: 1, Flags: packet.FlagACK, Window: 65535}
		return func() (int, time.Duration) {
			return timeN(50_000, func(i int) {
				f.Seq += vsMSS
				pool.Put(packet.BuildIn(pool, addrA, addrB, packet.ECT0, f, vsMSS))
			})
		}
	}},
	{"packet.parse_options_ns", "ns", func() func() (int, time.Duration) {
		p := packet.BuildIn(nil, addrA, addrB, packet.ECT0, packet.TCPFields{Flags: packet.FlagACK, Options: sackPackOptions()}, 0)
		var scratch [8]packet.Option
		var sum uint32
		return func() (int, time.Duration) {
			return timeN(100_000, func(int) {
				opts := p.TCP().Options()
				sum += uint32(len(packet.ParseOptions(opts, scratch[:0])))
				if info, ok := packet.ParsePACK(packet.FindOption(opts, packet.OptPACK)); ok {
					sum += info.TotalBytes
				}
			})
		}
	}},
	{"packet.pack_insert_strip_ns", "ns", func() func() (int, time.Duration) {
		pool := packet.NewPool()
		tmpl := packet.BuildIn(nil, addrA, addrB, packet.ECT0, packet.TCPFields{Flags: packet.FlagACK, Window: 65535}, 0)
		var pack [packet.PACKOptionLen]byte
		packet.EncodePACK(pack[:], packet.PACKInfo{TotalBytes: 1 << 20, MarkedBytes: 1 << 10})
		return func() (int, time.Duration) {
			return timeN(50_000, func(int) {
				q := pool.Clone(tmpl)
				packet.InsertTCPOptionInPlace(q, pack[:])
				packet.StripTCPOptionInPlace(q, packet.OptPACK)
				pool.Put(q)
			})
		}
	}},
	{"packet.checksum_full_ns", "ns", func() func() (int, time.Duration) {
		p := packet.BuildIn(nil, addrA, addrB, packet.ECT0, packet.TCPFields{Flags: packet.FlagACK, Options: sackPackOptions()}, vsMSS)
		return func() (int, time.Duration) {
			return timeN(100_000, func(int) {
				ip := p.IP()
				ip.ComputeChecksum()
				t := ip.TCP()
				t.ComputeChecksum(ip.PseudoHeaderSum(uint16(t.HeaderLen() + vsMSS)))
			})
		}
	}},
	{"packet.checksum_incr_ns", "ns", func() func() (int, time.Duration) {
		t := packet.BuildIn(nil, addrA, addrB, packet.ECT0, packet.TCPFields{Flags: packet.FlagACK}, 0).TCP()
		return func() (int, time.Duration) {
			return timeN(1_000_000, func(i int) { t.SetWindow(uint16(i)) })
		}
	}},

	{"netsim.link_hop_ns", "ns", func() func() (int, time.Duration) {
		// Send → serialize → propagate → deliver: two events per packet.
		s := sim.New(1)
		var back, burst []*packet.Packet
		l := netsim.NewLink(s, "l", 10e9, sim.Microsecond, netsim.HandlerFunc(func(p *packet.Packet) { back = append(back, p) }))
		for i := 0; i < 32; i++ {
			back = append(back, dataPacket(nil, i))
		}
		return func() (int, time.Duration) {
			const rounds = 300
			t := time.Now()
			for r := 0; r < rounds; r++ {
				burst, back = back, burst[:0]
				for _, p := range burst {
					l.Send(p)
				}
				s.RunAll()
			}
			return rounds * 32, time.Since(t)
		}
	}},
	{"netsim.switch_fwd_ns", "ns", func() func() (int, time.Duration) {
		// Route lookup, 4-way ECMP pick, WRED/shared-buffer admission and the
		// enqueue. The links drain outside the timed region.
		s := sim.New(1)
		pool := packet.NewPool()
		sw := netsim.NewSwitch(s, "sw", netsim.NewSharedBuffer(9<<20, 1))
		sw.Pool = pool
		sink := netsim.HandlerFunc(func(p *packet.Packet) { pool.Put(p) })
		var ports []int
		for i := 0; i < 4; i++ {
			l := netsim.NewLink(s, fmt.Sprint("p", i), 10e9, sim.Microsecond, sink)
			ports = append(ports, sw.AddPort(l, netsim.REDConfig{MarkThresholdBytes: 90_000}))
		}
		sw.SetDefaultEcmp(ports...)
		burst := make([]*packet.Packet, 128)
		return func() (int, time.Duration) {
			const rounds = 100
			var d time.Duration
			for r := 0; r < rounds; r++ {
				for i := range burst {
					burst[i] = dataPacket(pool, r*len(burst)+i)
				}
				t := time.Now()
				for _, p := range burst {
					sw.HandlePacket(p)
				}
				d += time.Since(t)
				s.RunAll()
			}
			return rounds * len(burst), d
		}
	}},

	{"tcpstack.bulk_ns_per_seg", "ns", func() func() (int, time.Duration) {
		// Two stacks back to back: no switch, no vSwitch. The cost per segment
		// includes the two link hops and their events.
		pr := newStackPair()
		var srv *tcpstack.Conn
		pr.b.Listen(5001, func(c *tcpstack.Conn) { srv = c })
		pr.a.Dial(addrB, 5001).Send(1 << 40)
		pr.s.RunFor(5 * sim.Millisecond)
		return func() (int, time.Duration) {
			before := srv.RecvSegs
			t := time.Now()
			pr.s.RunFor(2 * sim.Millisecond)
			return int(srv.RecvSegs - before), time.Since(t)
		}
	}},
	{"tcpstack.conn_cycle_ns", "ns", func() func() (int, time.Duration) {
		// dial → one MSS → close both ends → TIME_WAIT → teardown.
		pr := newStackPair()
		var srv *tcpstack.Conn
		pr.b.Listen(5001, func(c *tcpstack.Conn) { srv = c })
		return func() (int, time.Duration) {
			return timeN(50, func(int) {
				cli := pr.a.Dial(addrB, 5001)
				cli.Send(vsMSS)
				pr.s.RunFor(sim.Millisecond)
				cli.Close()
				srv.Close()
				pr.s.RunFor(100 * sim.Millisecond)
			})
		}
	}},

	// core: the two halves of vswitch-10k, the same loop with no AC/DC
	// attached (the paper's baseline), the sender half at 100 and 100 k
	// flows, and the life of a new flow.
	{"core.sender_ns_per_pkt", "ns", vsProbe(10_000, vsSend, true)},
	{"core.receiver_ns_per_pkt", "ns", vsProbe(10_000, vsRecv, true)},
	{"core.passthrough_ns_per_pkt", "ns", vsProbe(10_000, vsBoth, false)},
	{"core.sender_ns_per_pkt.f100", "ns", vsProbe(100, vsSend, true)},
	{"core.sender_ns_per_pkt.f100k", "ns", vsProbe(100_000, vsSend, true)},
	{"core.flow_setup_ns", "ns", func() func() (int, time.Duration) {
		f := newVSFixture(1, 0, vsSend, true)
		next := 0
		return func() (int, time.Duration) {
			return timeN(1000, func(int) {
				f.flowCycle(next)
				next++
			})
		}
	}},

	{"metrics.counter_inc_ns", "ns", func() func() (int, time.Duration) {
		c := metrics.NewRegistry().Counter("probe_total")
		return func() (int, time.Duration) {
			return timeN(1_000_000, func(int) { c.Inc() })
		}
	}},
	{"metrics.hist_observe_ns", "ns", func() func() (int, time.Duration) {
		h := metrics.NewRegistry().Histogram("probe_bytes", metrics.ExponentialBounds(2048, 2, 14))
		return func() (int, time.Duration) {
			return timeN(1_000_000, func(i int) { h.Observe(float64(i&0xffff) * 64) })
		}
	}},
	{"metrics.snapshot_us", "us", func() func() (int, time.Duration) {
		// A live vSwitch registry rendered as text.
		f := newVSFixture(1, 1000, vsBoth, true)
		f.run(vsWarm * 1000)
		n := 0
		return func() (int, time.Duration) {
			return timeN(200, func(int) { n += len(f.v.Metrics.Snapshot().Text()) })
		}
	}},

	// daemon: a 16-host instance that is never started. The simulation is
	// advanced by hand and requests are served synchronously through the
	// handler, so there is no socket and no wall-paced loop in the number.
	{"daemon.policy_install_us", "us", daemonProbe(200, func(i int) *http.Request {
		body := fmt.Sprintf(`{"host":%d,"src":"10.0.0.%d","dst":"10.0.0.%d","sport":40000,"dport":5001,"beta":0.5}`,
			i%16, i%16+1, (i+1)%16+1)
		return httptest.NewRequest("POST", "/v1/policy", strings.NewReader(body))
	})},
	{"daemon.metrics_scrape_us", "us", daemonProbe(20, func(int) *http.Request {
		return httptest.NewRequest("GET", "/metrics", nil)
	})},
}

var (
	addrA = packet.MakeAddr(10, 0, 0, 1)
	addrB = packet.MakeAddr(10, 0, 0, 2)
)

func holdModel(depth int) func() func() (int, time.Duration) {
	return func() func() (int, time.Duration) {
		s := sim.New(1)
		x := uint64(depth)
		left := 0
		var fire func()
		fire = func() {
			if left--; left == 0 {
				s.Stop()
			}
			x = x*6364136223846793005 + 1442695040888963407
			s.Schedule(sim.Duration(x>>44), fire) // up to ~1 ms ahead
		}
		for i := 0; i < depth; i++ {
			left = -1
			fire()
		}
		return func() (int, time.Duration) {
			left = 50_000
			t := time.Now()
			s.Run(math.MaxInt64 / 2)
			return 50_000, time.Since(t)
		}
	}
}

// sackPackOptions is the option block of a loss-recovery ACK under AC/DC:
// two SACK blocks and a PACK.
func sackPackOptions() []byte {
	opts := packet.EncodeSACK(nil, []packet.SACKBlock{{Start: 3000, End: 4460}, {Start: 7000, End: 9920}})
	var pack [packet.PACKOptionLen]byte
	packet.EncodePACK(pack[:], packet.PACKInfo{TotalBytes: 1 << 20, MarkedBytes: 1 << 10})
	return append(opts, pack[:]...)
}

// dataPacket builds a full-size segment of flow i toward addrB.
func dataPacket(pool *packet.Pool, i int) *packet.Packet {
	return packet.BuildIn(pool, addrA, addrB, packet.ECT0, packet.TCPFields{
		SrcPort: uint16(30000 + i%977), DstPort: 5001, Seq: uint32(i) * vsMSS, Ack: 1,
		Flags: packet.FlagACK, Window: 65535}, vsMSS)
}

type stackPair struct {
	s    *sim.Simulator
	a, b *tcpstack.Stack
}

func newStackPair() stackPair {
	s := sim.New(1)
	pool := packet.NewPool()
	ha, hb := netsim.NewHost(s, "a", addrA), netsim.NewHost(s, "b", addrB)
	ha.Pool, hb.Pool = pool, pool
	ha.NIC = netsim.NewLink(s, "a>b", 10e9, 5*sim.Microsecond, hb)
	hb.NIC = netsim.NewLink(s, "b>a", 10e9, 5*sim.Microsecond, ha)
	ha.NIC.Pool, hb.NIC.Pool = pool, pool
	cfg := guest(vsMSS+40, "cubic", tcpstack.ECNOff)
	return stackPair{s, tcpstack.NewStack(s, ha, cfg), tcpstack.NewStack(s, hb, cfg)}
}

func vsProbe(flows int, role vsRole, attach bool) func() func() (int, time.Duration) {
	return func() func() (int, time.Duration) {
		f := newVSFixture(1, flows, role, attach)
		// Touch every flow at least twice so lazy per-flow state exists.
		f.run(max(2*flows, min(vsWarm*flows, 200_000)))
		return func() (int, time.Duration) {
			before := f.offered
			t := time.Now()
			f.run(5000)
			return int(f.offered - before), time.Since(t)
		}
	}
}

func daemonProbe(n int, request func(i int) *http.Request) func() func() (int, time.Duration) {
	return func() func() (int, time.Duration) {
		d := daemon.New(daemon.Config{Hosts: 16, Workload: true})
		d.Net().Sim.RunFor(5 * sim.Millisecond) // live flows on every vSwitch
		h := d.Handler()
		return func() (int, time.Duration) {
			reqs := make([]*http.Request, n)
			for i := range reqs {
				reqs[i] = request(i)
			}
			t := time.Now()
			for _, req := range reqs {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("daemon probe: %s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body))
				}
			}
			return n, time.Since(t)
		}
	}
}
