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
	"acdc/internal/benchkit"
	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

// TestSenderDatapathZeroAlloc drives the Figure 11 sender-side loop
// (egress data + ingress PACK-carrying ACK) through an established flow.
// The fixture attaches no auditor, so this also pins that the nil-auditor
// branch in EgressPath/IngressPath costs zero allocations.
func TestSenderDatapathZeroAlloc(t *testing.T) {
	ob := newOverheadBench(64)
	f := 0
	// Warm the pool and the flow state once before measuring.
	round := func() {
		benchkit.BumpSeq(ob.Data[f], 1460)
		ob.V.EgressPath(ob.Data[f])
		benchkit.BumpSeq(ob.Acks[f], 0)
		ob.CloneIngress(ob.Acks[f])
		f = (f + 1) % 64
	}
	for i := 0; i < 128; i++ {
		round() // touch every flow so first-packet state is all built
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("sender steady-state datapath: %v allocs/op, want 0", n)
	}
}

// TestReceiverDatapathZeroAlloc drives the Figure 12 receiver-side loop
// (ingress data + egress ACK with in-place PACK attach).
func TestReceiverDatapathZeroAlloc(t *testing.T) {
	ob := newOverheadBench(64)
	f := 0
	round := func() {
		benchkit.BumpSeq(ob.InData[f], 1460)
		ob.V.IngressPath(ob.InData[f])
		ob.CloneEgress(ob.OutAck[f])
		f = (f + 1) % 64
	}
	for i := 0; i < 128; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("receiver steady-state datapath: %v allocs/op, want 0", n)
	}
}

// TestAuditedDatapathZeroAlloc attaches the invariant auditor and drives the
// same sender loop: a violation-free audit must also be allocation-free —
// event structs are populated on the stack and passed by value, and the lazy
// violation counters are never touched on the clean path.
func TestAuditedDatapathZeroAlloc(t *testing.T) {
	ob := newOverheadBench(64)
	audit.Attach(ob.V, audit.Config{Panic: true}) // any violation fails loudly
	f := 0
	round := func() {
		ob.SenderRound(f)
		f = (f + 1) % 64
	}
	for i := 0; i < 128; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("audited steady-state datapath: %v allocs/op, want 0", n)
	}
}

// TestSenderBatchDatapathZeroAlloc pins the batch entry points: a 32-packet
// burst through EgressBatch + IngressBatch must be allocation-free once the
// vSwitch batch scratch (meta/keys/flows/pair slices) has grown to burst
// size. The per-packet pins above stay as the batch-of-1 fallback guard.
func TestSenderBatchDatapathZeroAlloc(t *testing.T) {
	ob := newOverheadBench(64)
	f := 0
	round := func() {
		ob.SenderRoundBatch(f, 32)
		f = (f + 32) % 64
	}
	for i := 0; i < 128; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("sender batch datapath: %v allocs/op, want 0", n)
	}
}

// TestReceiverBatchDatapathZeroAlloc is the receiver-side batch pin.
func TestReceiverBatchDatapathZeroAlloc(t *testing.T) {
	ob := newOverheadBench(64)
	f := 0
	round := func() {
		ob.ReceiverRoundBatch(f, 32)
		f = (f + 32) % 64
	}
	for i := 0; i < 128; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("receiver batch datapath: %v allocs/op, want 0", n)
	}
}

// TestAuditedBatchDatapathZeroAlloc: the audited batch path brackets every
// burst element with CapturePre/PacketEvent exactly like the per-packet path,
// and a clean audit must stay allocation-free there too.
func TestAuditedBatchDatapathZeroAlloc(t *testing.T) {
	ob := newOverheadBench(64)
	audit.Attach(ob.V, audit.Config{Panic: true})
	f := 0
	round := func() {
		ob.SenderRoundBatch(f, 32)
		f = (f + 32) % 64
	}
	for i := 0; i < 128; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("audited batch datapath: %v allocs/op, want 0", n)
	}
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

// TestStreamDatapathZeroAlloc pins the train-stream fixtures behind the batch
// scaling curve (the headline perpacket-vs-batch comparison): both consumers
// of the shared stream must be allocation-free in steady state.
func TestStreamDatapathZeroAlloc(t *testing.T) {
	obP := benchkit.NewOverheadBenchTrains(64, 8)
	for i := 0; i < 64*8*2; i++ {
		obP.SenderStreamRound() // visit every flow/train slot once
	}
	if n := testing.AllocsPerRun(200, obP.SenderStreamRound); n != 0 {
		t.Errorf("sender stream per-packet: %v allocs/op, want 0", n)
	}

	obB := benchkit.NewOverheadBenchTrains(64, 8)
	roundB := func() { obB.SenderStreamBatch(32) }
	for i := 0; i < 64; i++ {
		roundB()
	}
	if n := testing.AllocsPerRun(200, roundB); n != 0 {
		t.Errorf("sender stream batch: %v allocs/op, want 0", n)
	}

	obR := benchkit.NewOverheadBenchTrains(64, 8)
	for i := 0; i < 64*8*2; i++ {
		obR.ReceiverStreamRound()
	}
	if n := testing.AllocsPerRun(200, obR.ReceiverStreamRound); n != 0 {
		t.Errorf("receiver stream per-packet: %v allocs/op, want 0", n)
	}

	obRB := benchkit.NewOverheadBenchTrains(64, 8)
	roundRB := func() { obRB.ReceiverStreamBatch(32) }
	for i := 0; i < 64; i++ {
		roundRB()
	}
	if n := testing.AllocsPerRun(200, roundRB); n != 0 {
		t.Errorf("receiver stream batch: %v allocs/op, want 0", n)
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
		Guest:  tcpstack.DefaultConfig(),
		Seed:   1,
		Fabric: doms,
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
// vSwitch has swept records parked, a new flow takes one back together with
// its inactivity timer, nothing is allocated to look it up or to create it,
// and the whole life of a flow allocates nothing.
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
