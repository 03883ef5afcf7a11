package core

// Tests for the flow-record free list (VSwitch.parked): a recycled record is
// indistinguishable from a new one, a record is never handed out inside the
// datapath call that removed it, no parked record is reachable from the table,
// and the list shrinks to demand.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// checkParkedRecords asserts the free-list invariant: a parked record is on
// the list once, is not the table's entry for its key, holds no link, has no
// timer armed (it would fire on the record's next flow), and no flow in the
// table reaches it through a link that claims to be valid.
func checkParkedRecords(t *testing.T, v *VSwitch, after string) {
	t.Helper()
	if len(v.parked) == 0 {
		return
	}
	parked := make(map[*Flow]bool, len(v.parked))
	for _, p := range v.parked {
		if parked[p] {
			t.Fatalf("after %s: %v is on the free list twice", after, p.Key)
		}
		parked[p] = true
		if v.Table.Get(p.Key) == p {
			t.Fatalf("after %s: parked record %v is still the table's entry", after, p.Key)
		}
		if p.peer != nil || (p.inactivity != nil && p.inactivity.Pending()) {
			t.Fatalf("after %s: parked record %v: link %p, timer armed %v", after, p.Key, p.peer,
				p.inactivity != nil && p.inactivity.Pending())
		}
		if p.cold != nil || p.isUDP {
			t.Fatalf("after %s: parked record %v carries tunnel state", after, p.Key)
		}
	}
	for _, f := range tableFlows(v.Table) {
		if parked[f.peer] && f.peerGen == v.Table.gen {
			t.Fatalf("after %s: %v holds a valid link to a parked record", after, f.Key)
		}
	}
}

// TestRecycleDifferential plays the reverse-link suite's scripts (packets of
// every kind, sweeps, pressure eviction, Table.Delete, good and corrupt
// restores, detach, clock advance) on a vSwitch that recycles and on one whose
// free list is emptied before every call: same outputs, same counters, same
// snapshot bytes, and the free-list invariant after every call.
func TestRecycleDifferential(t *testing.T) {
	reused := int64(0)
	for seed := int64(1); seed <= 12; seed++ {
		script := linkScript(rand.New(rand.NewSource(seed)), 1500)
		playScript(t, script, "recycling", func(v *VSwitch) { v.parked = nil })
		reused += countReuse(t, script)
	}
	if reused == 0 {
		t.Fatal("no script ever took a record back from the free list: the differential compared nothing")
	}
}

// countReuse replays script and counts the flows whose record had been another
// flow's before.
func countReuse(t *testing.T, script []byte) int64 {
	d := newLinkDriver(t, nil)
	seen := make(map[*Flow]FlowKey)
	n := int64(0)
	for i := 0; i+1 < len(script); i += 2 {
		d.step(int(script[i])%linkOpKinds, int(script[i+1])%linkConns)
		for _, f := range tableFlows(d.v.Table) {
			if k, ok := seen[f]; ok && k != f.Key {
				n++
			}
			seen[f] = f.Key
		}
	}
	return n
}

// recycleBench is one vSwitch driven packet by packet through its hooks, so
// that the per-packet epoch advances the way it does under traffic.
type recycleBench struct {
	t     *testing.T
	v     *VSwitch
	s     *sim.Simulator
	local packet.Addr
	peer  packet.Addr
}

func newRecycleBench(t *testing.T, cfg Config) *recycleBench {
	cfg.MTU = 1500
	cfg.GCInterval = 50 * sim.Microsecond
	cfg.IdleTimeout = 100 * sim.Microsecond
	v, host, s := loneVSwitch(t, cfg)
	return &recycleBench{t: t, v: v, s: s, local: host.Addr, peer: packet.MakeAddr(10, 0, 0, 2)}
}

// key is the local→peer direction of the connection on local port sp.
func (b *recycleBench) key(sp uint16) FlowKey {
	return FlowKey{Src: b.local, Dst: b.peer, SPort: sp, DPort: 5001}
}

func (b *recycleBench) out(sp uint16, f packet.TCPFields, payload int) (*packet.Packet, *packet.Packet) {
	f.SrcPort, f.DstPort, f.Window = sp, 5001, 65535
	return b.v.egressHook(packet.Build(b.local, b.peer, packet.NotECT, f, payload))
}

func (b *recycleBench) in(sp uint16, ecn packet.ECN, f packet.TCPFields, payload int) (*packet.Packet, *packet.Packet) {
	f.SrcPort, f.DstPort, f.Window = 5001, sp, 65535
	return b.v.ingressHook(packet.Build(b.peer, b.local, ecn, f, payload))
}

// cycle opens the connection on sp with a handshake and closes it both ways:
// two records, both closed.
func (b *recycleBench) cycle(sp uint16) {
	syn := packet.BuildSynOptions(1460, 7, true)
	const ack = packet.FlagACK
	b.out(sp, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
	b.in(sp, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	b.out(sp, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack | packet.FlagFIN}, 0)
	b.in(sp, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 2, Flags: ack | packet.FlagFIN}, 0)
}

// sweep advances the clock past IdleTimeout — only the direction that saw both
// FINs goes after GCInterval — and runs the lazy sweep.
func (b *recycleBench) sweep() {
	b.s.RunFor(2 * b.v.Cfg.IdleTimeout)
	b.v.sweepNow(b.s.Now())
	checkParkedRecords(b.t, b.v, "sweep")
}

// diffFlowState lists the fields in which got differs from want, reading the
// unexported ones in place. The timer is compared by being idle: a recycled
// record keeps its stopped timer where a new one has none yet.
func diffFlowState(got, want *Flow) []string {
	var diffs []string
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		field := func(v reflect.Value) any {
			f := v.Field(i)
			return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
		}
		g, w := field(gv), field(wv)
		if name == "inactivity" {
			if tm := g.(*sim.Timer); tm != nil && tm.Pending() {
				diffs = append(diffs, "inactivity: armed on a flow that has sent nothing")
			}
			continue
		}
		if !reflect.DeepEqual(g, w) {
			diffs = append(diffs, fmt.Sprintf("%s: %+v, a new record has %+v", name, g, w))
		}
	}
	return diffs
}

// TestRecycledFlowEqualsFresh takes a record through everything that leaves
// state behind — mid-stream adoption and its resync round, CE feedback and a
// window cut, a triple-dupack loss, an inactivity timeout, a live policy
// install that swaps the growth law, FIN both ways — has it swept and reused
// for another key, and compares it field by field with a record built new for
// that key.
func TestRecycledFlowEqualsFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VTimeout = 20 * sim.Microsecond
	b := newRecycleBench(t, cfg)
	const sp, ack, psh = 100, packet.FlagACK, packet.FlagPSH
	k := b.key(sp)

	// No SYN: adopted mid-stream, conservative until a clean feedback round.
	seq := uint32(5000)
	send := func(n int) {
		for i := 0; i < n; i++ {
			b.out(sp, packet.TCPFields{Seq: seq, Ack: 1, Flags: ack | psh}, 1000)
			seq += 1000
		}
	}
	fb := uint32(0)
	ackIn := func(ackNo, bytes, marked uint32) {
		fb += bytes
		b.in(sp, packet.ECT0, packet.TCPFields{Seq: 1, Ack: ackNo, Flags: ack,
			Options: feedbackOpt(packet.OptPACK, fb, marked)}, 0)
	}
	send(4)
	old := b.v.Table.Get(k)
	if old == nil || old.resync == resyncNone {
		t.Fatalf("flow not adopted in resync mode: %v", old)
	}
	ackIn(seq, 4000, 0)
	ackIn(seq, 0, 0)
	send(4)
	ackIn(seq, 4000, 0)
	if old.resync != resyncNone {
		t.Fatal("flow still resyncing after two clean feedback rounds")
	}
	if _, err := b.v.InstallPolicy(k, Policy{Beta: 0.5, RwndClampBytes: 30_000, VCC: "reno"}); err != nil {
		t.Fatal(err)
	}
	send(6)
	ackIn(seq-3000, 3000, 2500) // CE: α moves, the window is cut
	for i := 0; i < 4; i++ {
		ackIn(seq-3000, 0, 2500) // duplicate ACKs: a loss event
	}
	b.s.RunFor(3 * cfg.VTimeout) // data outstanding, nothing acknowledged: inferred timeout
	b.in(sp, packet.CE, packet.TCPFields{Seq: 1, Ack: seq, Flags: ack | psh}, 700)
	b.out(sp, packet.TCPFields{Seq: seq, Ack: 701, Flags: ack | packet.FlagFIN}, 0)
	b.in(sp, packet.NotECT, packet.TCPFields{Seq: 701, Ack: seq + 1, Flags: ack | packet.FlagFIN}, 0)
	if old.LossEvents == 0 || old.VTimeouts == 0 || old.Alpha == initAlpha || old.vcc.String() != "reno" ||
		old.peer == nil || old.inactivity == nil || !old.finFwd || !old.finRev {
		t.Fatalf("the record did not live through what the test is about: %+v", old)
	}
	b.v.ClearPolicy(k)

	b.sweep()
	if b.v.Table.Get(k) != nil || b.v.ParkedFlows() != 2 {
		t.Fatalf("after the sweep: in table %v, %d parked, want both records of the connection parked",
			b.v.Table.Get(k) != nil, b.v.ParkedFlows())
	}
	// Two new flows take both parked records; one of them gets old.
	var reused *Flow
	for _, p := range []uint16{200, 201} {
		b.out(p, packet.TCPFields{Flags: packet.FlagSYN}, 0)
		if f := b.v.Table.Get(b.key(p)); f == old {
			reused = f
		}
	}
	if reused == nil || b.v.ParkedFlows() != 0 {
		t.Fatalf("the swept record was not reused (%d still parked)", b.v.ParkedFlows())
	}
	fresh := new(Flow)
	b.v.buildFlow(fresh, reused.Key)
	// The SYN that created the flow has been through senderEgress.
	fresh.iss, fresh.issValid, fresh.synSeen = 0, true, true
	fresh.SndUna, fresh.SndNxt, fresh.alphaSeq = 1, 1, 1
	for _, d := range diffFlowState(reused, fresh) {
		t.Error(d)
	}
}

// TestEvictedRecordNotReusedInSameCall: ingressRun holds its own direction's
// record across flowFor, and at MaxFlows flowFor evicts closed flows at once —
// here the very record in hand. It must not come back as the new flow inside
// that call; the next packet may have it.
func TestEvictedRecordNotReusedInSameCall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFlows = 2
	b := newRecycleBench(t, cfg)
	const sp, ack = 100, packet.FlagACK
	b.out(sp, packet.TCPFields{Flags: packet.FlagSYN}, 0)
	b.out(sp, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack | packet.FlagFIN}, 0)
	b.in(sp, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 2, Flags: ack | packet.FlagFIN}, 0)
	own := b.v.Table.Get(b.key(sp))
	if own == nil || !own.finFwd || !own.finRev {
		t.Fatalf("own direction not closed both ways: %v", own)
	}
	// Leave only the closed record and one live flow: the table is full.
	b.v.Table.Delete(b.key(sp).Reverse())
	b.out(900, packet.TCPFields{Flags: packet.FlagSYN}, 0)
	if b.v.Table.Len() != cfg.MaxFlows {
		t.Fatalf("table holds %d records, want %d", b.v.Table.Len(), cfg.MaxFlows)
	}

	// A late data segment of the closed connection: the ACK half finds own,
	// the data half creates the peer's direction, and the create evicts own.
	b.in(sp, packet.ECT0, packet.TCPFields{Seq: 2, Ack: 2, Flags: ack | packet.FlagPSH}, 300)
	created := b.v.Table.Get(b.key(sp).Reverse())
	if created == nil || b.v.Table.Get(b.key(sp)) != nil {
		t.Fatalf("the create did not evict the closed record: created %v, old entry %v", created, b.v.Table.Get(b.key(sp)))
	}
	if created == own {
		t.Fatal("the record evicted by this call was handed out inside it")
	}
	if b.v.ParkedFlows() != 1 || b.v.parked[0] != own || own.Key != b.key(sp) {
		t.Fatalf("the evicted record should be parked untouched: %d parked, key %v", b.v.ParkedFlows(), own.Key)
	}
	checkParkedRecords(t, b.v, "eviction")

	// The next packet's create may take it.
	b.v.Table.Delete(b.key(900))
	b.out(901, packet.TCPFields{Flags: packet.FlagSYN}, 0)
	if got := b.v.Table.Get(b.key(901)); got != own {
		t.Fatalf("the next call did not reuse the parked record: got %p, parked %p", got, own)
	}
}

// TestFreeListTrimsToDemand: the list follows the creation rate of the last
// sweep period down as well as up, so a flash crowd's records go back to the
// collector instead of staying parked at the high-water mark.
func TestFreeListTrimsToDemand(t *testing.T) {
	b := newRecycleBench(t, DefaultConfig())
	sp := uint16(1000)
	burst := func(conns int) {
		for i := 0; i < conns; i++ {
			b.cycle(sp)
			sp++
		}
	}
	burst(2500) // 5 000 records
	b.sweep()
	if got := b.v.ParkedFlows(); got != 5000 {
		t.Fatalf("%d records parked after the spike was swept, want all 5000", got)
	}
	burst(5) // 10 records, all taken from the list
	if got := b.v.ParkedFlows(); got != 4990 {
		t.Fatalf("%d records parked after 10 creates, want 4990", got)
	}
	b.sweep()
	if got := b.v.ParkedFlows(); got > 10 {
		t.Fatalf("%d records parked two sweeps after the spike, want at most the 10 created since the last one", got)
	}
	b.sweep()
	if got := b.v.ParkedFlows(); got != 0 {
		t.Fatalf("%d records parked after a sweep period without a create, want 0", got)
	}
}

// TestTimerGCDropsFreeListWhenIdle: the sweep timer disarms on an empty table,
// so the tick that empties it must not leave records parked for good.
func TestTimerGCDropsFreeListWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 80 * sim.Microsecond
	b := newRecycleBench(t, cfg)
	for round := 0; round < 3; round++ {
		for sp := uint16(1000); sp < 1040; sp++ {
			b.cycle(sp)
		}
		b.s.RunFor(sim.Millisecond)
		if b.v.Table.Len() != 0 || b.v.ParkedFlows() != 0 {
			t.Fatalf("round %d: idle vSwitch holds %d flows and %d parked records", round, b.v.Table.Len(), b.v.ParkedFlows())
		}
	}
}
