package core

import (
	"testing"

	"acdc/internal/faults"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// --- sweep timer ---

func TestSweepTimerRunsWithoutTraffic(t *testing.T) {
	// The lazy packet-driven sweep needs datapath ops to fire; the
	// SweepInterval timer must collect idle flows on a quiet vSwitch too.
	cfg := DefaultConfig()
	cfg.SweepInterval = sim.Millisecond
	cfg.GCInterval = sim.Millisecond
	cfg.IdleTimeout = 2 * sim.Millisecond
	v, host, s := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 100, 100))
	if v.Table.Len() != 1 {
		t.Fatalf("table len %d, want 1", v.Table.Len())
	}
	// No further datapath activity: only the timer can sweep.
	s.RunFor(20 * sim.Millisecond)
	if v.Table.Len() != 0 {
		t.Fatalf("idle flow survived %d sweep ticks", 20)
	}
	if v.Stats().FlowsRemoved == 0 {
		t.Fatal("FlowsRemoved not counted")
	}
	// With the table empty the timer must go quiet (drained sims terminate).
	if v.sweepTimer.Pending() {
		t.Fatal("sweep timer still armed with an empty table")
	}
}

func TestSweepTimerRearmsOnNewFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = sim.Millisecond
	cfg.IdleTimeout = 2 * sim.Millisecond
	v, host, s := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 100, 100))
	s.RunFor(20 * sim.Millisecond) // first generation swept, timer idle
	egress(v, dataPkt(host.Addr, peer, 3, 4, 100, 100))
	if !v.sweepTimer.Pending() {
		t.Fatal("sweep timer not re-armed by the new flow")
	}
	s.RunFor(20 * sim.Millisecond)
	if v.Table.Len() != 0 {
		t.Fatal("second-generation flow never swept")
	}
}

// --- close ---

// TestGuestCloseRetiresBothRecords: once both FINs have crossed the vSwitch,
// in whichever order and whether or not the receive-direction record existed
// when the guest's FIN left, both records of the connection go at the first
// sweep past GCInterval, without waiting for IdleTimeout, and neither is left
// linked.
func TestGuestCloseRetiresBothRecords(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []string
	}{
		{"local FIN before the reverse record exists", []string{"data out", "fin out", "fin in"}},
		{"local FIN after the reverse record exists", []string{"data out", "data in", "fin out", "fin in"}},
		{"remote FIN first", []string{"data out", "fin in", "fin out"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, host, s := loneVSwitch(t, DefaultConfig())
			remote := packet.MakeAddr(10, 0, 0, 2)
			k := FlowKey{Src: host.Addr, Dst: remote, SPort: 100, DPort: 200}
			fin := packet.FlagACK | packet.FlagFIN
			for _, step := range tc.steps {
				switch step {
				case "data out":
					egress(v, dataPkt(host.Addr, remote, 100, 200, 1, 1000))
				case "data in":
					ingress(v, dataPkt(remote, host.Addr, 200, 100, 1, 500))
				case "fin out":
					egress(v, packet.Build(host.Addr, remote, packet.NotECT, packet.TCPFields{
						SrcPort: 100, DstPort: 200, Seq: 1001, Ack: 1, Flags: fin, Window: 65535}, 0))
				case "fin in":
					ingress(v, packet.Build(remote, host.Addr, packet.NotECT, packet.TCPFields{
						SrcPort: 200, DstPort: 100, Seq: 1, Ack: 1002, Flags: fin, Window: 65535}, 0))
				}
			}
			a, b := v.Table.Get(k), v.Table.Get(k.Reverse())
			if a == nil || b == nil {
				t.Fatalf("records after both FINs: send %p, receive %p", a, b)
			}
			for _, f := range []*Flow{a, b} {
				if !f.finFwd || !f.finRev {
					t.Fatalf("%v: finFwd %v finRev %v, want both", f.Key, f.finFwd, f.finRev)
				}
			}
			v.sweepNow(s.Now() + v.Cfg.GCInterval)
			if v.Table.Len() != 2 {
				t.Fatalf("%d records left at GCInterval, want both kept", v.Table.Len())
			}
			v.sweepNow(s.Now() + v.Cfg.GCInterval + 1)
			if n := v.Table.Len(); n != 0 || v.Stats().FlowsRemoved != 2 {
				t.Fatalf("%d records left and %d removed past GCInterval, want 0 and 2", n, v.Stats().FlowsRemoved)
			}
			if a.peer != nil || b.peer != nil {
				t.Fatalf("a swept record still links: send→%p receive→%p", a.peer, b.peer)
			}
			checkParkedRecords(t, v, "close sweep")
		})
	}
}

// --- bounded table / fail-open ---

func TestFlowForEvictsClosedUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFlows = 2
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Fill the table with two closed flows.
	for i := uint16(0); i < 2; i++ {
		f := v.flowFor(FlowKey{Src: host.Addr, Dst: peer, SPort: 100 + i, DPort: 200}, true)
		if f == nil {
			t.Fatalf("flow %d not created below capacity", i)
		}
		f.finFwd, f.finRev = true, true
	}
	// At capacity, a new key must evict the closed entries rather than
	// fail open or grow past the bound.
	f := v.flowFor(FlowKey{Src: host.Addr, Dst: peer, SPort: 300, DPort: 200}, true)
	if f == nil {
		t.Fatal("flowFor failed open even though closed flows were evictable")
	}
	if n := v.Table.Len(); n > cfg.MaxFlows {
		t.Fatalf("table grew to %d > MaxFlows=%d", n, cfg.MaxFlows)
	}
	st := v.Stats()
	if st.FlowsEvicted == 0 {
		t.Fatal("FlowsEvicted not counted")
	}
	if st.FlowTableFull != 0 {
		t.Fatalf("FlowTableFull = %d on an evictable table", st.FlowTableFull)
	}
}

func TestFlowForFailsOpenAtHardCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFlows = 2
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Two live (recently active, not closed) flows: nothing is evictable.
	egress(v, dataPkt(host.Addr, peer, 100, 200, 100, 100))
	egress(v, dataPkt(host.Addr, peer, 101, 200, 100, 100))
	if v.Table.Len() != 2 {
		t.Fatalf("table len %d, want 2", v.Table.Len())
	}
	// The third flow's traffic must still pass, untracked.
	p := dataPkt(host.Addr, peer, 102, 200, 100, 100)
	out := egress(v, p)
	if len(out) != 1 || out[0] != p {
		t.Fatal("at-capacity egress did not pass the packet through")
	}
	if v.Table.Len() != 2 {
		t.Fatalf("table grew past MaxFlows: %d", v.Table.Len())
	}
	st := v.Stats()
	if st.FlowTableFull == 0 || st.FailOpen == 0 {
		t.Fatalf("fail-open not counted: FlowTableFull=%d FailOpen=%d",
			st.FlowTableFull, st.FailOpen)
	}
}

// --- malformed options fail open ---

func TestMalformedOptionsFailOpen(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	// An option block with a length byte running past the end.
	bad := []byte{packet.OptMSS, 40, 0, 0}
	p := packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 100, Ack: 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535, Options: bad,
	}, 100)
	out := egress(v, p)
	if len(out) != 1 || out[0] != p {
		t.Fatal("malformed-options packet was not passed through")
	}
	if v.Table.Len() != 0 {
		t.Fatal("vSwitch tracked state parsed from a damaged option block")
	}
	out = ingress(v, p)
	if len(out) != 1 || out[0] != p {
		t.Fatal("malformed-options ingress packet was not passed through")
	}
	st := v.Stats()
	if st.MalformedOptions != 2 || st.FailOpen != 2 {
		t.Fatalf("MalformedOptions=%d FailOpen=%d, want 2/2",
			st.MalformedOptions, st.FailOpen)
	}
}

// --- feedback loss tolerance ---

func TestFeedbackLossFreezesGrowthNotTraffic(t *testing.T) {
	// Once PACK/FACK feedback has flowed and then goes dark, the sender
	// module must freeze vCWND growth (stale congestion view) but keep
	// forwarding traffic; the event is counted. The injector's
	// feedback-loss profile on the receiver's uplink is the blackout.
	acdcCfg := DefaultConfig()
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)
	_, srvp := b.longFlow(t, 0, 1)
	b.s.RunFor(20 * sim.Millisecond)
	if (*srvp) == nil || (*srvp).Delivered == 0 {
		t.Fatal("no data flowed during warmup")
	}
	if b.acdc[0].Stats().PacksConsumed == 0 {
		t.Fatal("no feedback consumed during warmup")
	}

	inj := faults.NewInjector(faults.Profile{Name: "blackout", DropFeedback: 1}, 7)
	inj.Attach(b.hosts[1].NIC) // receiver's uplink carries its feedback
	before := (*srvp).Delivered
	b.s.RunFor(100 * sim.Millisecond)

	if got := (*srvp).Delivered; got <= before {
		t.Fatalf("traffic stalled after feedback blackout: %d -> %d", before, got)
	}
	if b.acdc[0].Stats().FeedbackTimeouts == 0 {
		t.Fatal("feedback blackout never counted a FeedbackTimeout")
	}
	var fired int64
	for _, n := range inj.Registry().Snapshot().Counters {
		fired += n
	}
	if fired == 0 {
		t.Fatal("injector attached but never fired")
	}
}

// --- lying total length fails open ---

// TestShortTotalLenFailsOpen: a segment whose IP total length is below its own
// IP and TCP headers claims a negative payload, a lying header the packet
// editors already refuse. Both hooks pass it through untouched and count a
// fail-open; neither creates a record from it nor acts on its FIN, and the
// auditor exempts it like every other fail-open class.
func TestShortTotalLenFailsOpen(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	p := packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 100, Ack: 1,
		Flags: packet.FlagFIN | packet.FlagACK, Window: 65535,
	}, 0)
	p.IP().SetTotalLen(30) // 10 bytes short of its 40 header bytes
	if v.CapturePre(p).Auditable {
		t.Fatal("CapturePre marked a short-total-length segment auditable")
	}
	for i, hook := range []func(*VSwitch, *packet.Packet) []*packet.Packet{egress, ingress} {
		out := hook(v, p)
		if len(out) != 1 || out[0] != p || p.TCP().Window() != 65535 {
			t.Fatalf("hook %d: short-total-length segment not passed through untouched", i)
		}
		st := v.Stats()
		if v.Table.Len() != 0 || st.FlowsAdoptedMidstream != 0 || st.FailOpen != int64(i+1) {
			t.Fatalf("hook %d: flows=%d adopted=%d fail_open=%d, want 0/0/%d",
				i, v.Table.Len(), st.FlowsAdoptedMidstream, st.FailOpen, i+1)
		}
	}
}
