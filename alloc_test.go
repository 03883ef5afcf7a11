package acdc

// Allocation-regression tests for the datapath hot paths. The performance
// model (ARCHITECTURE.md "Performance model") promises that steady-state
// per-segment processing — established flow, no slow-path events — performs
// zero heap allocations: packets come from the host pool, events from the
// simulator free list, and the vSwitch mutates headers in place. These tests
// pin that property so a stray fmt.Sprintf or slice literal in the hot path
// fails CI instead of quietly costing 10% throughput.

import (
	"testing"

	"acdc/internal/audit"
	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

// dpFlows is the connection count of the datapath fixture: a round-robin
// over 64 flows touches more than one hot record, and sets up in microseconds.
const dpFlows = 64

// datapathFixture is dpFlows established connections through one
// core.Attach'ed host, driven like TestFlowCycleZeroAlloc: every packet comes
// from the host's pool, takes EgressPath or IngressPath, and whatever comes
// out goes back to the pool. The local end of each connection sends (sender
// module: data out, PACK-carrying ACK in) and receives (receiver module: data
// in, ACK out with the PACK attached in place).
type datapathFixture struct {
	v           *core.VSwitch
	pool        *packet.Pool
	local, peer packet.Addr
	sent, rcvd  [dpFlows]uint32 // payload bytes each direction has carried
	pack        [packet.PACKOptionLen]byte
	next        int // flow of the next round
}

// dpMSS is the fixture's segment payload at its 1500-byte MTU, the paper's
// worst case (the most packets per byte).
const dpMSS = 1460

func newDatapathFixture() *datapathFixture {
	s := sim.New(1)
	d := &datapathFixture{local: packet.MakeAddr(10, 0, 0, 1), peer: packet.MakeAddr(10, 0, 0, 2)}
	host := netsim.NewHost(s, "h", d.local)
	host.Pool = packet.NewPool()
	cfg := core.DefaultConfig()
	cfg.MTU = 1500
	d.v, d.pool = core.Attach(s, host, cfg), host.Pool
	syn := packet.BuildSynOptions(dpMSS, 7, true)
	for f := range dpFlows {
		d.send(true, f, packet.NotECT, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
		d.send(false, f, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | packet.FlagACK, Options: syn}, 0)
	}
	return d
}

// send builds one segment of flow f, outbound (local → peer, EgressPath) or
// inbound (IngressPath), and puts what the datapath hands on back in the
// pool — the segment itself when it was consumed, as Host.HandlePacket does.
func (d *datapathFixture) send(out bool, f int, ecn packet.ECN, tf packet.TCPFields, payload int) {
	src, dst := d.local, d.peer
	tf.SrcPort, tf.DstPort, tf.Window = uint16(30000+f), 5001, 65535
	hook := d.v.EgressPath
	if !out {
		src, dst = d.peer, d.local
		tf.SrcPort, tf.DstPort = 5001, uint16(30000+f)
		hook = d.v.IngressPath
	}
	p := packet.BuildIn(d.pool, src, dst, ecn, tf, payload)
	res, extra := hook(p)
	if res == nil && extra == nil {
		res = p
	}
	d.pool.Put(res)
	d.pool.Put(extra)
}

// senderRound is one Figure 11 round on the next flow: a data segment out,
// then the peer's ACK of it carrying the PACK totals its vSwitch would have
// counted, a quarter of the bytes CE-marked.
func (d *datapathFixture) senderRound() {
	f := d.next
	d.next = (f + 1) % dpFlows
	const ack = packet.FlagACK
	d.send(true, f, packet.NotECT, packet.TCPFields{Seq: 1 + d.sent[f], Ack: 1, Flags: ack | packet.FlagPSH}, dpMSS)
	d.sent[f] += dpMSS
	packet.EncodePACK(d.pack[:], packet.PACKInfo{TotalBytes: d.sent[f], MarkedBytes: d.sent[f] / 4})
	d.send(false, f, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 1 + d.sent[f], Flags: ack, Options: d.pack[:]}, 0)
}

// receiverRound is one Figure 12 round on the next flow: a data segment in,
// every fourth one CE-marked, then the guest's ACK of it out, which leaves
// with the running totals attached as a PACK.
func (d *datapathFixture) receiverRound() {
	f := d.next
	d.next = (f + 1) % dpFlows
	const ack = packet.FlagACK
	ecn := packet.ECT0
	if d.rcvd[f]%(4*dpMSS) == 0 {
		ecn = packet.CE
	}
	d.send(false, f, ecn, packet.TCPFields{Seq: 1 + d.rcvd[f], Ack: 1, Flags: ack | packet.FlagPSH}, dpMSS)
	d.rcvd[f] += dpMSS
	d.send(true, f, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 1 + d.rcvd[f], Flags: ack}, 0)
}

// pinZeroAlloc warms round over every flow twice, so first-packet state is
// built, then requires the steady state to allocate nothing. It also requires
// the rounds to have done the datapath's work, so a fixture that silently
// fails open cannot pass.
func pinZeroAlloc(t *testing.T, d *datapathFixture, what string, round func()) {
	t.Helper()
	for range 2 * dpFlows {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, n)
	}
	st := d.v.Stats()
	if st.FailOpen != 0 || st.UntrackedSegs != 0 || st.FlowsCreated != 2*dpFlows {
		t.Errorf("%s: %d failed open, %d untracked, %d flows created (want %d)",
			what, st.FailOpen, st.UntrackedSegs, st.FlowsCreated, 2*dpFlows)
	}
	if out := d.pool.Gets - d.pool.Puts; out != 0 {
		t.Errorf("%s: %d packets not returned to the pool", what, out)
	}
}

// TestSenderDatapathZeroAlloc drives the Figure 11 sender-side rounds. The
// fixture attaches no auditor, so this also pins that the nil-auditor branch
// in EgressPath/IngressPath costs zero allocations.
func TestSenderDatapathZeroAlloc(t *testing.T) {
	d := newDatapathFixture()
	pinZeroAlloc(t, d, "sender steady-state datapath", d.senderRound)
	if st := d.v.Stats(); st.PacksConsumed == 0 || st.RwndRewrites == 0 {
		t.Errorf("sender rounds consumed %d PACKs and rewrote %d windows; want both > 0", st.PacksConsumed, st.RwndRewrites)
	}
}

// TestReceiverDatapathZeroAlloc drives the Figure 12 receiver-side rounds
// (ingress data, egress ACK with in-place PACK attach).
func TestReceiverDatapathZeroAlloc(t *testing.T) {
	d := newDatapathFixture()
	pinZeroAlloc(t, d, "receiver steady-state datapath", d.receiverRound)
	if st := d.v.Stats(); st.PacksAttached == 0 || st.FacksSent != 0 {
		t.Errorf("receiver rounds attached %d PACKs and sent %d FACKs; want PACKs only", st.PacksAttached, st.FacksSent)
	}
}

// TestAuditedDatapathZeroAlloc attaches the invariant auditor and drives the
// sender rounds: a violation-free audit must also be allocation-free — event
// structs are populated on the stack and passed by value, and the lazy
// violation counters are never touched on the clean path.
func TestAuditedDatapathZeroAlloc(t *testing.T) {
	d := newDatapathFixture()
	audit.Attach(d.v, audit.Config{Panic: true}) // any violation fails loudly
	pinZeroAlloc(t, d, "audited steady-state datapath", d.senderRound)
}

// TestPoolCloneReleaseZeroAlloc pins the pool round trip itself.
func TestPoolCloneReleaseZeroAlloc(t *testing.T) {
	pool := packet.NewPool()
	tmpl := packet.Build(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.NotECT, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, Window: 100}, 0)
	round := func() {
		q := pool.Clone(tmpl)
		pool.Put(q)
	}
	round()
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("pool clone/release: %v allocs/op, want 0", n)
	}
	if pool.News > 1 {
		t.Errorf("pool allocated %d fresh packets for a 1-deep working set", pool.News)
	}
}

// TestOptionEditsStayInline pins the two fault edits that shrink a header —
// feedback-loss removing a PACK and strip-options removing every option — to
// the packet's own header array: a pooled ACK carrying PACK and SACK-permitted
// keeps its Buf where the pool put it, and the edit allocates nothing.
func TestOptionEditsStayInline(t *testing.T) {
	pool := packet.NewPool()
	var pack [packet.PACKOptionLen]byte
	packet.EncodePACK(pack[:], packet.PACKInfo{TotalBytes: 9000, MarkedBytes: 1500})
	opts := append([]byte{packet.OptNOP, packet.OptNOP, packet.OptSACKPerm, 2}, pack[:]...)
	for _, prof := range []faults.Profile{{DropFeedback: 1}, {StripOptions: 1}} {
		in := faults.NewInjector(prof, 1)
		var moved bool
		round := func() {
			p := packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 2), packet.MakeAddr(10, 0, 0, 1), packet.NotECT,
				packet.TCPFields{SrcPort: 5001, DstPort: 40000, Flags: packet.FlagACK, Window: 100, Options: opts}, 0)
			home, room, before := &p.Buf[0], cap(p.Buf), len(p.Buf)
			in.Hook(nil, p, func(*packet.Packet, sim.Duration) {})
			moved = moved || len(p.Buf) >= before || &p.Buf[0] != home || cap(p.Buf) != room
			pool.Put(p)
		}
		round()
		if moved {
			t.Errorf("%v: the edit moved the header off the packet's own array", prof)
		}
		if n := testing.AllocsPerRun(500, round); n != 0 {
			t.Errorf("%v: %v allocs per edited packet, want 0", prof, n)
		}
	}
}

// TestConnCycleZeroAlloc pins the guest stack's connection cycle: two stacks
// back to back (no switch, no vSwitch), dial → one MSS → close both ends →
// TIME_WAIT → teardown. Once each stack has a closed Conn parked, the next
// connection takes the record back with its timers and congestion-control
// state, the SYN options and burst buffer come from the stack's scratch, and
// the whole life of a connection allocates nothing.
func TestConnCycleZeroAlloc(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	addrA, addrB := packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2)
	ha, hb := netsim.NewHost(s, "a", addrA), netsim.NewHost(s, "b", addrB)
	ha.Pool, hb.Pool = pool, pool
	ha.NIC = netsim.NewLink(s, "a>b", 10e9, 5*sim.Microsecond, hb)
	hb.NIC = netsim.NewLink(s, "b>a", 10e9, 5*sim.Microsecond, ha)
	ha.NIC.Pool, hb.NIC.Pool = pool, pool
	cfg := tcpstack.DefaultConfig()
	cfg.MTU = 1500
	a, b := tcpstack.NewStack(s, ha, cfg), tcpstack.NewStack(s, hb, cfg)

	var srv *tcpstack.Conn
	closed := 0
	onClosed := func() { closed++ }
	b.Listen(5001, func(c *tcpstack.Conn) { srv = c })
	cycle := func() {
		cli := a.Dial(addrB, 5001)
		cli.OnClosed = onClosed
		cli.Send(int64(cfg.MSS()))
		s.RunFor(sim.Millisecond)
		cli.Close()
		srv.Close()
		s.RunFor(100 * sim.Millisecond)
	}
	const warm, runs = 10, 100
	for i := 0; i < warm; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Errorf("connection cycle: %v allocs/op, want 0", n)
	}
	// AllocsPerRun calls cycle once more than it measures.
	if want := warm + runs + 1; closed != want || a.NumConns() != 0 || b.NumConns() != 0 {
		t.Errorf("%d of %d connections closed, %d and %d still open", closed, want, a.NumConns(), b.NumConns())
	}
	if out := pool.Gets - pool.Puts; out != 0 {
		t.Errorf("%d packets not returned to the pool", out)
	}
}

// TestTimeWaitHoldsNoConn pins what TIME_WAIT costs a stack. Four closed-loop
// clients on two stacks back to back dial, send one MSS, close both ends at
// once and dial again, so both ends pass through TIME_WAIT, which outlasts a
// connection's life over a thousand times. After 10 ms each stack holds about
// 2 400 connections in TIME_WAIT, but the Conn records it keeps, open or parked,
// stay bounded by the connections it has open: a connection gives its Conn
// back when it enters TIME_WAIT and keeps only a small record, whose deadline
// is an entry in the stack's one TIME_WAIT Deadlines: once the last open
// connection has closed, the thousands in TIME_WAIT are one pending event per
// stack.
func TestTimeWaitHoldsNoConn(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	addrA, addrB := packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2)
	ha, hb := netsim.NewHost(s, "a", addrA), netsim.NewHost(s, "b", addrB)
	ha.Pool, hb.Pool = pool, pool
	ha.NIC = netsim.NewLink(s, "a>b", 10e9, 5*sim.Microsecond, hb)
	hb.NIC = netsim.NewLink(s, "b>a", 10e9, 5*sim.Microsecond, ha)
	ha.NIC.Pool, hb.NIC.Pool = pool, pool
	cfg := tcpstack.DefaultConfig()
	cfg.MTU = 1500
	stacks := []*tcpstack.Stack{tcpstack.NewStack(s, ha, cfg), tcpstack.NewStack(s, hb, cfg)}
	mss := int64(cfg.MSS())

	// open[i] counts the connections stack i has dialed or accepted and not
	// yet closed.
	var open, peak [2]int
	track := func(i, d int) {
		open[i] += d
		peak[i] = max(peak[i], open[i])
	}
	const clients = 4
	stopped := false
	clis := make(map[uint16]*tcpstack.Conn)
	var request func()
	request = func() {
		if stopped {
			return
		}
		cli := stacks[0].Dial(addrB, 5001)
		clis[cli.LocalPort()] = cli
		track(0, 1)
		cli.Send(mss)
	}
	stacks[1].Listen(5001, func(srv *tcpstack.Conn) {
		_, port := srv.RemoteAddr()
		cli := clis[port]
		delete(clis, port)
		track(1, 1)
		srv.OnRecv = func(int) {
			if srv.Delivered < mss {
				return
			}
			s.Schedule(0, func() {
				cli.Close()
				srv.Close()
				track(0, -1)
				track(1, -1)
				request()
			})
		}
	})
	worst := [2]int{}
	var sample func()
	sample = func() {
		for i, st := range stacks {
			worst[i] = max(worst[i], st.ConnRecords())
		}
		if !stopped {
			s.Schedule(10*sim.Microsecond, sample)
		}
	}
	for range clients {
		request()
	}
	s.Schedule(0, sample)
	s.RunFor(10 * sim.Millisecond)
	inTimeWait := [2]int{stacks[0].NumConns() - open[0], stacks[1].NumConns() - open[1]}
	stopped = true
	s.RunFor(sim.Millisecond) // the last requests close; TIME_WAIT lasts 40 ms
	if p := s.Pending(); p != len(stacks) {
		t.Errorf("%d connections in TIME_WAIT and none open: %d pending events, want one per stack",
			stacks[0].NumConns()+stacks[1].NumConns(), p)
	}
	s.RunFor(100 * sim.Millisecond)
	for i, st := range stacks {
		bound := 2*peak[i] + 2
		t.Logf("stack %d: at most %d open, %d Conn records; %d in TIME_WAIT", i, peak[i], worst[i], inTimeWait[i])
		if worst[i] > bound {
			t.Errorf("stack %d held up to %d Conn records with at most %d connections open (bound %d) and %d in TIME_WAIT",
				i, worst[i], peak[i], bound, inTimeWait[i])
		}
		// The bound must be far below what keeping a Conn through TIME_WAIT
		// would hold, or it pins nothing.
		if inTimeWait[i] < 50*bound {
			t.Errorf("stack %d: only %d connections in TIME_WAIT, want ≥ %d", i, inTimeWait[i], 50*bound)
		}
		if st.NumConns() != 0 || st.ConnRecords() > bound {
			t.Errorf("stack %d after the drain: %d connections, %d Conn records", i, st.NumConns(), st.ConnRecords())
		}
	}
}

// TestFabricFlapLeakFree pins packet-pool and event ownership across link
// lifecycle churn, end to end: a k=4 fat-tree carrying cross-pod bulk traffic
// while an aggregation switch's spine uplinks flap continuously. Every drain
// path a flap exercises — queued packets discarded by Down(), sends refused
// while down, ECMP blackholes when a group loses every member — must return
// ownership to packet.Pool, and the down/up timer churn must recycle through
// the simulator's event free list. A leak in any of them shows up here as
// unbounded pool/event allocation growth after warm-up.
func TestFabricFlapLeakFree(t *testing.T) {
	// Both of p0-agg0's core uplinks flap together (300us down / 700us up,
	// 78 cycles from t=2ms), so pod-0 traffic repeatedly loses the whole
	// uplink group mid-burst.
	doms, err := faults.ParseDomains("flap@2ms,link=p0-agg0>*,down=300us,up=700us,count=78")
	if err != nil {
		t.Fatalf("ParseDomains: %v", err)
	}
	net := topo.FatTree(topo.FatTreeConfig{K: 4}, topo.Options{
		Guest: tcpstack.DefaultConfig(),
		Seed:  1,
		Env:   topo.Env{Fabric: doms},
	})
	m := workload.NewManager(net)
	flows := make([]*workload.Messenger, 0, 8)
	for i := 0; i < 8; i++ {
		flows = append(flows, m.Open(i, (i+8)%16)) // pods 0,1 → 2,3: all cross-spine
	}
	var refill func()
	refill = func() {
		for _, f := range flows {
			f.SendBulk(512 << 10)
		}
		net.Sim.ScheduleFunc(sim.Millisecond, refill)
	}
	net.Sim.ScheduleFunc(0, refill)

	// Warm up through ~18 flap cycles: pool and event free lists reach their
	// high-water marks, flows are in steady congestion avoidance.
	net.Sim.Run(20 * sim.Millisecond)
	newsWarm, allocWarm := net.Pool.News, net.Sim.Allocated()

	// Sixty more cycles. A Down() drain that dropped pool ownership would
	// bleed the free list every cycle and force fresh allocations linearly
	// (hundreds over this window); a healthy lifecycle stays near flat.
	net.Sim.Run(60 * sim.Millisecond)
	if grew := net.Pool.News - newsWarm; grew > 200 {
		t.Errorf("pool allocated %d fresh packets across flap cycles after warm-up (leaked ownership on drain?)", grew)
	}
	if grew := net.Sim.Allocated() - allocWarm; grew > 512 {
		t.Errorf("simulator allocated %d fresh events across flap cycles after warm-up (timer leak?)", grew)
	}

	// The run must actually have exercised the drain paths, or the bounds
	// above pin nothing.
	snap := net.FabricSnapshot()
	if downs := snap.Counter("fabric_link_downs_total"); downs < 100 {
		t.Fatalf("only %d link-down events — flap plan did not run", downs)
	}
	if snap.Counter("link_drops_total{reason=down}") == 0 {
		t.Fatal("no down-drain drops: flaps never caught a busy queue, test lost its teeth")
	}
	var delivered int64
	for _, f := range flows {
		delivered += f.Delivered()
	}
	if delivered == 0 {
		t.Fatal("no traffic delivered under flaps")
	}
}

// TestFlowCycleZeroAlloc pins the vSwitch's flow lifecycle: one vSwitch, one
// connection at a time opened, used, closed both ways and collected by the
// timer GC beside a long-lived flow, then the next one opened. Once the
// vSwitch has swept records parked, a new flow takes one back, its inactivity
// deadline takes a freed entry of the vSwitch's, nothing is allocated to look
// it up or to create it, and the whole life of a flow allocates nothing.
func TestFlowCycleZeroAlloc(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	local, peer := packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2)
	host := netsim.NewHost(s, "h", local)
	host.Pool = pool
	cfg := core.DefaultConfig()
	cfg.MTU = 1500
	cfg.GCInterval = 50 * sim.Microsecond
	cfg.IdleTimeout = 100 * sim.Microsecond
	cfg.SweepInterval = 80 * sim.Microsecond
	v := core.Attach(s, host, cfg)

	send := func(out bool, sp uint16, ecn packet.ECN, f packet.TCPFields, payload int) {
		src, dst := local, peer
		f.SrcPort, f.DstPort, f.Window = sp, 5001, 65535
		hook := v.EgressPath
		if !out {
			src, dst = peer, local
			f.SrcPort, f.DstPort = 5001, sp
			hook = v.IngressPath
		}
		res, extra := hook(packet.BuildIn(pool, src, dst, ecn, f, payload))
		pool.Put(res)
		pool.Put(extra)
	}
	syn := packet.BuildSynOptions(1460, 7, true)
	var pack [packet.PACKOptionLen]byte
	packet.EncodePACK(pack[:], packet.PACKInfo{TotalBytes: 1000, MarkedBytes: 250})
	const ack, psh, fin = packet.FlagACK, packet.FlagPSH, packet.FlagFIN
	bulk := uint32(1)
	sp := uint16(0)
	cycle := func() {
		// Sixteen ports in turn: the table's map sees the same keys again.
		p := 1000 + sp%16
		sp++
		send(true, p, packet.NotECT, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
		send(false, p, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
		send(true, p, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack | psh}, 1000)
		send(false, p, packet.CE, packet.TCPFields{Seq: 1, Ack: 1001, Flags: ack | psh, Options: pack[:]}, 500)
		send(true, p, packet.NotECT, packet.TCPFields{Seq: 1001, Ack: 501, Flags: ack | fin}, 0)
		send(false, p, packet.NotECT, packet.TCPFields{Seq: 501, Ack: 1002, Flags: ack | fin}, 0)
		// The long-lived flow keeps the table, and with it the sweep timer
		// and the free list, from going idle between connections.
		send(true, 900, packet.NotECT, packet.TCPFields{Seq: bulk, Ack: 1, Flags: ack | psh}, 1000)
		bulk += 1000
		send(false, 900, packet.ECT0, packet.TCPFields{Seq: 1, Ack: bulk, Flags: ack}, 0)
		s.RunFor(40 * sim.Microsecond) // two connections per pass of the timer GC
	}
	const warm, runs = 40, 200
	for i := 0; i < warm; i++ {
		cycle()
	}
	created := v.Stats().FlowsCreated
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Errorf("flow cycle: %v allocs/op, want 0", n)
	}
	// AllocsPerRun calls cycle once more than it measures. Every cycle made
	// two records and the GC took them again; only the long-lived pair stays.
	st := v.Stats()
	if got, want := st.FlowsCreated-created, int64(2*(runs+1)); got != want {
		t.Errorf("%d flows created in %d cycles, want %d", got, runs+1, want)
	}
	s.RunFor(sim.Millisecond)
	if st = v.Stats(); st.FlowsCreated-st.FlowsRemoved != 0 || v.Table.Len() != 0 || v.ParkedFlows() != 0 {
		t.Errorf("after the drain: %d flows not removed, %d in the table, %d parked",
			st.FlowsCreated-st.FlowsRemoved, v.Table.Len(), v.ParkedFlows())
	}
	if out := pool.Gets - pool.Puts; out != 0 {
		t.Errorf("%d packets not returned to the pool", out)
	}
}
