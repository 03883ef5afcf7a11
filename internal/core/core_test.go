package core

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
)

// bench: star topology with AC/DC attached to every host.
type bench struct {
	s      *sim.Simulator
	sw     *netsim.Switch
	hosts  []*netsim.Host
	stacks []*tcpstack.Stack
	acdc   []*VSwitch
}

func newBench(t *testing.T, n int, guest tcpstack.Config, acdcCfg *Config, red netsim.REDConfig, rate int64) *bench {
	t.Helper()
	s := sim.New(11)
	b := &bench{s: s, sw: netsim.NewSwitch(s, "tor", netsim.NewSharedBuffer(9<<20, 1.0))}
	for i := 0; i < n; i++ {
		addr := packet.MakeAddr(10, 0, 0, byte(i+1))
		h := netsim.NewHost(s, "h", addr)
		h.NIC = netsim.NewLink(s, "up", rate, 5*sim.Microsecond, b.sw)
		down := netsim.NewLink(s, "down", rate, 5*sim.Microsecond, h)
		b.sw.AddRoute(addr, b.sw.AddPort(down, red))
		b.hosts = append(b.hosts, h)
		b.stacks = append(b.stacks, tcpstack.NewStack(s, h, guest))
		if acdcCfg != nil {
			cfg := *acdcCfg
			b.acdc = append(b.acdc, Attach(s, h, cfg))
		}
	}
	return b
}

func cubicGuest() tcpstack.Config {
	cfg := tcpstack.DefaultConfig() // cubic, ECN off, 9K MTU
	return cfg
}

const testK = 90_000

func redK() netsim.REDConfig { return netsim.REDConfig{MarkThresholdBytes: testK} }

// longFlow starts a bulk flow and returns the client conn plus a holder for
// the server conn, which is populated once the simulator runs the handshake.
func (b *bench) longFlow(t *testing.T, from, to int) (*tcpstack.Conn, **tcpstack.Conn) {
	t.Helper()
	srv := new(*tcpstack.Conn)
	b.stacks[to].Listen(5001, func(c *tcpstack.Conn) { *srv = c })
	cli := b.stacks[from].Dial(b.hosts[to].Addr, 5001)
	cli.Send(1 << 40)
	return cli, srv
}

// --- the headline behaviour ---

func TestACDCEnforcesDCTCPOnCubicGuests(t *testing.T) {
	acdcCfg := DefaultConfig()
	b := newBench(t, 3, cubicGuest(), &acdcCfg, redK(), 10e9)
	_, srv1 := b.longFlow(t, 0, 2)
	var srv2 *tcpstack.Conn
	b.stacks[2].Listen(5002, func(c *tcpstack.Conn) { srv2 = c })
	cli2 := b.stacks[1].Dial(b.hosts[2].Addr, 5002)
	cli2.Send(1 << 40)
	b.s.RunFor(100 * sim.Millisecond)

	bottleneck := b.sw.Port(2)
	if b.sw.TotalDrops() != 0 {
		t.Fatalf("AC/DC should avoid drops, got %d", b.sw.TotalDrops())
	}
	if bottleneck.Stats.Marks == 0 {
		t.Fatal("no CE marks: the ECN loop never engaged")
	}
	// CUBIC alone would drive this queue to megabytes; under AC/DC it must
	// stay bounded near K like native DCTCP.
	if q := bottleneck.Stats.MaxQueueBytes; q > 12*testK {
		t.Fatalf("max queue %dB under AC/DC, want ≈K=%d", q, testK)
	}
	// Goodput over the bottleneck's capacity, headers and handshake excluded.
	if u := float64((*srv1).Delivered+srv2.Delivered) * 8 / (10e9 * b.s.Now().Seconds()); u < 0.85 {
		t.Fatalf("utilization %.2f, want high", u)
	}
	sv := b.acdc[0]
	if sv.Stats().RwndRewrites == 0 {
		t.Fatal("sender-side AC/DC never rewrote RWND")
	}
	if sv.Stats().PacksConsumed == 0 {
		t.Fatal("sender-side AC/DC never received PACK feedback")
	}
	if b.acdc[2].Stats().PacksAttached == 0 {
		t.Fatal("receiver-side AC/DC never attached PACKs")
	}
}

func TestGuestNeverSeesECNOrPACK(t *testing.T) {
	acdcCfg := DefaultConfig()
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)

	// Interpose on the stack demux to inspect what the guest receives.
	inner := b.hosts[1].Demux
	var sawECN, sawPACK bool
	b.hosts[1].Demux = netsim.HandlerFunc(func(p *packet.Packet) {
		if p.IP().ECN() != packet.NotECT {
			sawECN = true
		}
		if packet.FindOption(p.TCP().Options(), packet.OptPACK) != nil {
			sawPACK = true
		}
		inner.HandlePacket(p)
	})
	innerS := b.hosts[0].Demux
	var sawPACKSender bool
	b.hosts[0].Demux = netsim.HandlerFunc(func(p *packet.Packet) {
		if packet.FindOption(p.TCP().Options(), packet.OptPACK) != nil {
			sawPACKSender = true
		}
		innerS.HandlePacket(p)
	})

	_, srvp := b.longFlow(t, 0, 1)
	b.s.RunFor(50 * sim.Millisecond)
	srv := *srvp
	if srv == nil || srv.Delivered == 0 {
		t.Fatal("no data flowed")
	}
	if sawECN {
		t.Fatal("ECN-off guest received ECN-marked packet")
	}
	if sawPACK || sawPACKSender {
		t.Fatal("guest received a PACK option")
	}
}

func TestFlowTableLifecycle(t *testing.T) {
	acdcCfg := DefaultConfig()
	acdcCfg.GCInterval = 10 * sim.Millisecond
	acdcCfg.IdleTimeout = 50 * sim.Millisecond
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)
	var srv *tcpstack.Conn
	b.stacks[1].Listen(5001, func(c *tcpstack.Conn) {
		srv = c
		c.OnPeerClose = func() { c.Close() }
	})
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(100_000)
	b.s.Schedule(20*sim.Millisecond, cli.Close)
	b.s.RunFor(30 * sim.Millisecond)
	_ = srv
	// Two directions tracked on each host.
	if n := b.acdc[0].Table.Len(); n != 2 {
		t.Fatalf("host0 table has %d entries, want 2", n)
	}
	// Idle long enough for the lazy GC; drive traffic on another flow so the
	// datapath sweeps.
	b.stacks[1].Listen(5002, func(*tcpstack.Conn) {})
	c2 := b.stacks[0].Dial(b.hosts[1].Addr, 5002)
	c2.Send(1 << 30)
	b.s.RunFor(300 * sim.Millisecond)
	if b.acdc[0].Stats().FlowsRemoved == 0 {
		t.Fatal("GC never removed the finished flow")
	}
}

func TestThroughputMatchesNativeDCTCP(t *testing.T) {
	// One flow: AC/DC over CUBIC vs native DCTCP must land within a few
	// percent of each other (Table 1's equivalence).
	run := func(acdcOn bool) float64 {
		guest := cubicGuest()
		var cfgp *Config
		if acdcOn {
			c := DefaultConfig()
			cfgp = &c
		} else {
			guest.CC = "dctcp"
			guest.ECN = tcpstack.ECNDCTCP
		}
		b := newBench(t, 2, guest, cfgp, redK(), 10e9)
		_, srvp := b.longFlow(t, 0, 1)
		b.s.RunFor(100 * sim.Millisecond)
		return float64((*srvp).Delivered) * 8 / b.s.Now().Seconds()
	}
	acdc, native := run(true), run(false)
	if acdc < 0.9*native {
		t.Fatalf("AC/DC %.2fGbps vs native DCTCP %.2fGbps", acdc/1e9, native/1e9)
	}
}

func TestRwndRewriteRespectsWindowScale(t *testing.T) {
	acdcCfg := DefaultConfig()
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)
	cli, _ := b.longFlow(t, 0, 1)
	b.s.RunFor(50 * sim.Millisecond)
	// The guest's view of the peer window must track the vSwitch cwnd within
	// one scale quantum (2^7 = 128 bytes).
	f := b.acdc[0].Table.Get(FlowKey{
		Src: b.hosts[0].Addr, Dst: b.hosts[1].Addr,
		SPort: cli.LocalPort(), DPort: 5001,
	})
	if f == nil {
		t.Fatal("sender flow entry missing")
	}
	snap := f.Snapshot()
	got := cli.SndWnd()
	want := int64(snap.CwndBytes)
	if peerBuf := int64(4 << 20); want > peerBuf {
		want = peerBuf // the guest's own advertisement is the ceiling
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if !f.WScaleKnown {
		t.Fatal("window scale never learned from handshake")
	}
	// Tolerance: the cwnd moves by up to ~2 MSS between the last rewritten
	// ACK and the snapshot, plus the 2^7 scale quantum.
	if diff > 2*8960+128 {
		t.Fatalf("guest sndWnd %d vs vSwitch cwnd %d (diff %d)", got, want, diff)
	}
}

func TestRwndClampBoundsThroughput(t *testing.T) {
	// Figure 6's mechanism: clamping RWND caps throughput at clamp/RTT.
	acdcCfg := DefaultConfig()
	acdcCfg.FlowPolicy = func(FlowKey) Policy {
		p := DefaultPolicy()
		p.RwndClampBytes = 2 * 8960 // two segments
		return p
	}
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)
	_, srvp := b.longFlow(t, 0, 1)
	b.s.RunFor(50 * sim.Millisecond)
	rate := float64((*srvp).Delivered) * 8 / b.s.Now().Seconds()
	// Unclamped would be ~9.9G; 2 MSS per ~25us RTT ≈ 5.7G. Assert well
	// below line rate but nonzero.
	if rate > 8e9 || rate < 0.1e9 {
		t.Fatalf("clamped rate = %.2f Gbps", rate/1e9)
	}
}

func TestBetaDifferentiation(t *testing.T) {
	// Two flows, β=1 vs β=0.25: the high-β flow must get more bandwidth.
	acdcCfg := DefaultConfig()
	acdcCfg.FlowPolicy = func(k FlowKey) Policy {
		p := DefaultPolicy()
		if k.DPort == 5002 {
			p.Beta = 0.25
		}
		return p
	}
	b := newBench(t, 3, cubicGuest(), &acdcCfg, redK(), 10e9)
	var srv1, srv2 *tcpstack.Conn
	b.stacks[2].Listen(5001, func(c *tcpstack.Conn) { srv1 = c })
	b.stacks[2].Listen(5002, func(c *tcpstack.Conn) { srv2 = c })
	c1 := b.stacks[0].Dial(b.hosts[2].Addr, 5001)
	c2 := b.stacks[1].Dial(b.hosts[2].Addr, 5002)
	c1.Send(1 << 40)
	c2.Send(1 << 40)
	b.s.RunFor(150 * sim.Millisecond)
	if srv1 == nil || srv2 == nil {
		t.Fatal("flows not established")
	}
	if srv1.Delivered < srv2.Delivered*3/2 {
		t.Fatalf("β=1 flow got %d, β=0.25 flow got %d; want clear priority",
			srv1.Delivered, srv2.Delivered)
	}
	if srv2.Delivered == 0 {
		t.Fatal("low-β flow starved completely")
	}
}

func TestPolicingDropsNonConformingStack(t *testing.T) {
	guest := cubicGuest()
	guest.IgnoreRwnd = true // circumvents the standard
	acdcCfg := DefaultConfig()
	acdcCfg.Police = true
	// Two rogue flows share host 2's downlink so congestion (and hence a
	// virtual window worth enforcing) actually exists.
	b := newBench(t, 3, guest, &acdcCfg, redK(), 10e9)
	_, srvp := b.longFlow(t, 0, 2)
	var srv2 *tcpstack.Conn
	b.stacks[2].Listen(5002, func(c *tcpstack.Conn) { srv2 = c })
	cli2 := b.stacks[1].Dial(b.hosts[2].Addr, 5002)
	cli2.Send(1 << 40)
	b.s.RunFor(50 * sim.Millisecond)
	srv := *srvp
	_ = srv2
	if b.acdc[0].Stats().PolicingDrops == 0 && b.acdc[1].Stats().PolicingDrops == 0 {
		t.Fatal("policing never dropped for an RWND-ignoring stack")
	}
	if srv.Delivered == 0 {
		t.Fatal("policing starved the flow entirely")
	}
	// The bottleneck queue must stay far below what unpoliced rogue stacks
	// (which fill the multi-MB shared buffer) would produce.
	if q := b.sw.Port(2).Stats.MaxQueueBytes; q > 40*testK {
		t.Fatalf("rogue stack drove queue to %dB despite policing", q)
	}
}

func TestFACKFallbackPath(t *testing.T) {
	acdcCfg := DefaultConfig()
	acdcCfg.DisablePACK = true // ablation: dedicated feedback packets only
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)
	_, srvp := b.longFlow(t, 0, 1)
	b.s.RunFor(50 * sim.Millisecond)
	srv := *srvp
	if b.acdc[1].Stats().FacksSent == 0 {
		t.Fatal("no FACKs sent with PACK disabled")
	}
	if b.acdc[0].Stats().FacksConsumed == 0 {
		t.Fatal("no FACKs consumed at the sender")
	}
	if b.acdc[0].Stats().PacksConsumed != 0 {
		t.Fatal("PACKs seen despite DisablePACK")
	}
	if srv.Delivered == 0 {
		t.Fatal("no data delivered on FACK-only feedback")
	}
	// Queue still bounded: feedback loop works over FACKs.
	if q := b.sw.Port(1).Stats.MaxQueueBytes; q > 12*testK {
		t.Fatalf("queue %dB with FACK feedback", q)
	}
}

func TestLogOnlyModeDoesNotEnforce(t *testing.T) {
	acdcCfg := DefaultConfig()
	acdcCfg.EnforceRwnd = false
	b := newBench(t, 2, cubicGuest(), &acdcCfg, netsim.REDConfig{}, 10e9)
	samples := 0
	b.acdc[0].OnRwndComputed = func(f *Flow, rwnd int64, overwrote bool) {
		samples++
		if overwrote {
			t.Fatal("log-only mode overwrote RWND")
		}
	}
	b.longFlow(t, 0, 1)
	b.s.RunFor(30 * sim.Millisecond)
	if samples == 0 {
		t.Fatal("no RWND samples in log-only mode")
	}
	if b.acdc[0].Stats().RwndRewrites != 0 {
		t.Fatal("rewrites counted in log-only mode")
	}
}

func TestVTimeoutCollapsesWindow(t *testing.T) {
	acdcCfg := DefaultConfig()
	b := newBench(t, 2, cubicGuest(), &acdcCfg, redK(), 10e9)
	// Blackhole all traffic mid-flow: inactivity timer must fire.
	cli, _ := b.longFlow(t, 0, 1)
	b.s.RunFor(20 * sim.Millisecond)
	key := FlowKey{Src: b.hosts[0].Addr, Dst: b.hosts[1].Addr, SPort: cli.LocalPort(), DPort: 5001}
	f := b.acdc[0].Table.Get(key)
	before := f.Snapshot().CwndBytes

	hookOld := b.hosts[0].Egress
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		hookOld(p)      // vSwitch accounting runs (snd_nxt advances)…
		return nil, nil // …but nothing reaches the wire, so ACKs stop
	}
	// The guest's first RTO (RTOMin 10 ms) retransmits and re-arms the
	// vSwitch's timer, which then fires before the backed-off second RTO.
	b.s.RunFor(40 * sim.Millisecond)
	if b.acdc[0].Stats().VTimeouts == 0 {
		t.Fatal("inactivity timer never fired")
	}
	after := f.Snapshot().CwndBytes
	if after >= before {
		t.Fatalf("cwnd not collapsed: %v → %v", before, after)
	}
}

// TestVTimeoutsShareOneEvent: a vSwitch makes its inactivity deadlines when a
// flow first has data outstanding; k such flows keep theirs behind one pending
// event; all of them fire at vTimeout and re-arm, and acknowledging everything
// stops them all.
func TestVTimeoutsShareOneEvent(t *testing.T) {
	b := newRecycleBench(t, DefaultConfig())
	const k, ack, psh = 100, packet.FlagACK, packet.FlagPSH
	syn := packet.BuildSynOptions(1460, 7, true)
	for sp := uint16(1000); sp < 1000+k; sp++ {
		b.out(sp, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
		b.in(sp, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	}
	if b.v.vtimeouts != nil {
		t.Fatal("handshakes alone made the vSwitch's deadlines: an idle vSwitch must pay nothing for them")
	}
	for sp := uint16(1000); sp < 1000+k; sp++ {
		b.out(sp, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack | psh}, 1000)
	}
	if p := b.s.Pending(); p != 1 {
		t.Fatalf("%d flows with data outstanding: %d pending events, want 1", k, p)
	}
	b.s.RunFor(vTimeout)
	if got := b.v.Stats().VTimeouts; got != k || b.s.Pending() != 1 {
		t.Fatalf("after vTimeout: %d timeouts, %d pending events; want %d and 1", got, b.s.Pending(), k)
	}
	for sp := uint16(1000); sp < 1000+k; sp++ {
		b.in(sp, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 1001, Flags: ack}, 0)
	}
	if p := b.s.Pending(); p != 0 {
		t.Fatalf("everything acknowledged: %d pending events, want 0", p)
	}
}

func TestDupAckGeneration(t *testing.T) {
	acdcCfg := DefaultConfig()
	acdcCfg.GenDupAcks = true
	guest := cubicGuest()
	guest.RTOMin = sim.Second // guest RTO far above AC/DC's timer
	b := newBench(t, 2, guest, &acdcCfg, redK(), 10e9)

	cli, srvp := b.longFlow(t, 0, 1)
	b.s.RunFor(10 * sim.Millisecond)
	srv := *srvp

	// Blackhole the network path (after vSwitch accounting).
	b.hosts[0].NIC.Policy = blackhole{}
	b.s.RunFor(10 * sim.Millisecond)
	b.hosts[0].NIC.Policy = nil
	b.s.RunFor(50 * sim.Millisecond)

	if b.acdc[0].Stats().DupAcksGenerated == 0 {
		t.Fatal("no synthesized dupacks")
	}
	if cli.FastRecoveries == 0 {
		t.Fatal("guest never fast-retransmitted off synthesized dupacks")
	}
	if cli.Timeouts != 0 {
		t.Fatal("guest hit its (huge) RTO anyway")
	}
	if srv.Delivered == 0 {
		t.Fatal("no delivery")
	}
}

type blackhole struct{}

func (blackhole) OnEnqueue(*netsim.Link, *packet.Packet) bool { return false }
func (blackhole) OnDequeue(*netsim.Link, *packet.Packet)      {}

// --- unit-level tests ---

func TestTableCreateAndSweep(t *testing.T) {
	tb := NewTable()
	mk := func(i int) FlowKey {
		return FlowKey{Src: packet.Addr(i), Dst: packet.Addr(i + 1), SPort: uint16(i), DPort: 80}
	}
	for i := 0; i < 1000; i++ {
		k := mk(i)
		f, created := tb.GetOrCreate(k, func() *Flow { return &Flow{Key: k} })
		if !created || f == nil {
			t.Fatal("create failed")
		}
	}
	if tb.Len() != 1000 {
		t.Fatalf("len = %d", tb.Len())
	}
	if f, created := tb.GetOrCreate(mk(5), func() *Flow { t.Fatal("re-init"); return nil }); created || f == nil {
		t.Fatal("GetOrCreate recreated existing flow")
	}
	n := 0
	tb.Range(func(*Flow) { n++ })
	if n != 1000 {
		t.Fatalf("Range visited %d", n)
	}
	removed := tb.Sweep(func(f *Flow) bool { return f.Key.SPort%2 == 0 })
	if removed != 500 || tb.Len() != 500 {
		t.Fatalf("sweep removed %d, len %d", removed, tb.Len())
	}
	tb.Delete(mk(2))
	if tb.Get(mk(2)) != nil {
		t.Fatal("delete failed")
	}
}

func TestEquationOneCutFactor(t *testing.T) {
	v := vccDCTCP
	f := &Flow{senderBlock: &senderBlock{Alpha: 0.5}, Policy: &Policy{Beta: 1}}
	if got := v.cut(f); got != 0.75 {
		t.Fatalf("β=1 α=0.5: factor %v, want 0.75 (DCTCP)", got)
	}
	f.Policy = &Policy{Beta: 0}
	if got := v.cut(f); got != 0.5 {
		t.Fatalf("β=0 α=0.5: factor %v, want 0.5 (full α back-off)", got)
	}
	f.Alpha = 1
	if got := v.cut(f); got != 0 {
		t.Fatalf("β=0 α=1: factor %v, want 0", got)
	}
	f.Policy = &Policy{Beta: 1}
	if got := v.cut(f); got != 0.5 {
		t.Fatalf("β=1 α=1: factor %v, want 0.5", got)
	}
	f.Policy = &Policy{Beta: 0.5}
	// 1 − (1 − 1·0.5/2) = 0.25
	if got := v.cut(f); got != 0.25 {
		t.Fatalf("β=0.5 α=1: factor %v, want 0.25", got)
	}
}

// Property: under arbitrary synthetic feedback, α stays in [0, 1] and the
// virtual window never goes below the floor.
func TestSenderCCInvariantsProperty(t *testing.T) {
	s := sim.New(3)
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.NIC = netsim.NewLink(s, "up", 10e9, sim.Microsecond, netsim.HandlerFunc(func(*packet.Packet) {}))
	v := Attach(s, host, DefaultConfig())

	prop := func(ops []uint32) bool {
		key := FlowKey{Src: host.Addr, Dst: packet.MakeAddr(10, 0, 0, 2), SPort: 1, DPort: 2}
		f := v.newFlow(key, true)
		f.issValid = true
		f.SndUna, f.SndNxt = 1, 1
		f.alphaSeq = 1
		f.WScaleKnown = true
		f.PeerWScale = 7
		var total, marked uint32
		for _, op := range ops {
			// Synthesize data then an ACK with feedback.
			dataLen := int64(op%20000) + 1
			f.SndNxt += dataLen
			total += uint32(dataLen)
			if op%3 == 0 {
				marked += uint32(dataLen)
			}
			ackTo := f.SndUna + int64(op%uint32(dataLen+1))
			ack := packet.Build(key.Dst, key.Src, packet.NotECT, packet.TCPFields{
				SrcPort: key.DPort, DstPort: key.SPort,
				Seq: 777, Ack: f.iss + uint32(ackTo),
				Flags: packet.FlagACK, Window: 65535,
			}, 0)
			v.processFeedbackAndAck(f, ack, ack.TCP(), packet.PACKInfo{TotalBytes: total, MarkedBytes: marked}, true)
			if f.Alpha < 0 || f.Alpha > 1.0001 {
				return false
			}
			if f.CwndBytes < float64(v.minRwnd(f))-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDetachRestoresPassthrough(t *testing.T) {
	acdcCfg := DefaultConfig()
	b := newBench(t, 2, cubicGuest(), &acdcCfg, netsim.REDConfig{}, 10e9)
	b.acdc[0].Detach()
	b.acdc[1].Detach()
	_, srvp := b.longFlow(t, 0, 1)
	b.s.RunFor(20 * sim.Millisecond)
	if (*srvp).Delivered == 0 {
		t.Fatal("no data after detach")
	}
	if b.acdc[0].Stats().EgressSegs != 0 {
		t.Fatal("detached vSwitch still processing")
	}
}

// TestFlowSizeClass keeps a bare record at one cache line and a senderFlow at
// three, the 64- and 192-byte malloc size classes, whose objects start on line
// boundaries (one more word and a senderFlow costs 208 bytes and straddles
// four lines), and an index slot at two words.
func TestFlowSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n != 64 {
		t.Fatalf("a bare record is %d bytes, want the 64-byte size class: one line", n)
	}
	if n := unsafe.Sizeof(senderFlow{}); n != 192 {
		t.Fatalf("a senderFlow is %d bytes, want the 192-byte size class: three lines", n)
	}
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("an index slot is %d bytes, want 16", n)
	}
}

// TestFlowFootprint pins what a tracked flow costs: 10 k connections set up
// through the hooks as vswitch-10k sets them up (a handshake each, half dialed
// out and half in; no data, so no timer), then the live heap per record, its
// share of the index included — one 192-byte senderFlow and one 64-byte bare
// record per connection, and ≈ 24 bytes of slots: 152 B a record.
func TestFlowFootprint(t *testing.T) {
	const conns, limit = 10_000, 160
	v, host, _ := loneVSwitch(t, DefaultConfig())
	opts := packet.BuildSynOptions(1460, 7, true)
	syn := packet.TCPFields{Seq: 1000, Flags: packet.FlagSYN, Window: 65535, Options: opts}
	synAck := packet.TCPFields{Seq: 5000, Ack: 1001, Flags: packet.FlagSYN | packet.FlagACK, Window: 65535, Options: opts}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		remote, port := packet.MakeAddr(11, byte(i>>16), byte(i>>8), byte(i)), uint16(30000+i%20000)
		dialOut := i%2 == 0
		lp, rp := port, uint16(5001)
		if !dialOut {
			lp, rp = rp, lp
		}
		seg := func(out bool, f packet.TCPFields) {
			if out {
				f.SrcPort, f.DstPort = lp, rp
				v.EgressPath(packet.Build(host.Addr, remote, packet.NotECT, f, 0))
			} else {
				f.SrcPort, f.DstPort = rp, lp
				v.IngressPath(packet.Build(remote, host.Addr, packet.NotECT, f, 0))
			}
		}
		seg(dialOut, syn)
		seg(!dialOut, synAck)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := v.Table.Len(); n != 2*conns {
		t.Fatalf("%d records for %d connections, want two each", n, conns)
	}
	per := (after.HeapAlloc - before.HeapAlloc) / (2 * conns)
	t.Logf("%d B of live heap per tracked record", per)
	if per > limit {
		t.Fatalf("%d B of live heap per tracked record, want ≤ %d", per, limit)
	}
	runtime.KeepAlive(v)
}

// TestAttachFootprint pins a vSwitch's fixed cost before its first flow. Its
// metrics were most of it (2 936 B of 3 832 B) while each series was a word
// of its own behind a name map; the bound, half of that, holds while they
// are plain words of one struct whose names are shared by every vSwitch.
func TestAttachFootprint(t *testing.T) {
	const n, limit = 200, 1916
	s := sim.New(1)
	hosts := make([]*netsim.Host, n)
	for i := range hosts {
		hosts[i] = netsim.NewHost(s, "h", packet.MakeAddr(10, 0, byte(i>>8), byte(i)))
	}
	vs := make([]*VSwitch, n)
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, h := range hosts {
		vs[i] = Attach(s, h, cfg)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(vs)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("Attach allocates %d B per vSwitch", per)
	if per > limit {
		t.Fatalf("Attach allocates %d B per vSwitch, want ≤ %d", per, limit)
	}
}
