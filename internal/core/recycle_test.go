package core

// Tests for the flow-record free lists (VSwitch.parked, one per kind): a
// recycled record is indistinguishable from a new one, a record is never
// handed out inside the datapath call that removed it, no parked record is
// reachable from the table, and each list shrinks to demand.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// parkedRecords lists both free lists, bare records first.
func parkedRecords(v *VSwitch) []*Flow {
	return slices.Concat(v.parked[0].recs, v.parked[1].recs)
}

// checkParkedRecords asserts the free-list invariant: a parked record is on
// its kind's list once, is not the table's entry for its key, holds no link
// and no cold state, has no timer armed (it would fire on the record's next
// flow), and no flow in the table links to it.
func checkParkedRecords(t *testing.T, v *VSwitch, after string) {
	t.Helper()
	recs := parkedRecords(v)
	if len(recs) == 0 {
		return
	}
	parked := make(map[*Flow]bool, len(recs))
	for i, p := range recs {
		if parked[p] {
			t.Fatalf("after %s: %v is on the free list twice", after, p.Key)
		}
		parked[p] = true
		if inline := i >= len(v.parked[0].recs); p.inline != inline {
			t.Fatalf("after %s: parked record %v is on the other kind's list", after, p.Key)
		}
		if v.Table.Get(p.Key) == p {
			t.Fatalf("after %s: parked record %v is still the table's entry", after, p.Key)
		}
		if p.peer != nil || p.vtimeout.Pending() {
			t.Fatalf("after %s: parked record %v: link %p, timer armed %v", after, p.Key, p.peer, p.vtimeout.Pending())
		}
		if p.cold != nil || p.isUDP {
			t.Fatalf("after %s: parked record %v carries cold or tunnel state", after, p.Key)
		}
	}
	for _, f := range tableFlows(v.Table) {
		if parked[f.peer] {
			t.Fatalf("after %s: %v links to a parked record", after, f.Key)
		}
	}
}

// TestRecycleDifferential plays the reverse-link suite's scripts (packets of
// every kind, sweeps, pressure eviction, Table.Delete, restores, cold
// restarts, detach, clock advance) on a vSwitch that recycles and on one whose
// free list is emptied before every call: same outputs, same counters, same
// checkpoint, and the free-list invariant after every call.
func TestRecycleDifferential(t *testing.T) {
	reused := int64(0)
	for seed := int64(1); seed <= 12; seed++ {
		script := linkScript(rand.New(rand.NewSource(seed)), 1500)
		playScript(t, script, "recycling", func(v *VSwitch) { v.parked = [2]freeList{} })
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

// sweep advances the clock past IdleTimeout, so every record goes whether or
// not it saw both FINs, and runs the lazy sweep.
func (b *recycleBench) sweep() {
	b.s.RunFor(2 * b.v.Cfg.IdleTimeout)
	b.v.sweepNow(b.s.Now())
	checkParkedRecords(b.t, b.v, "sweep")
}

// diffFlowState lists the fields, the sender block's included, in which got
// differs from want, reading the unexported ones in place.
func diffFlowState(got, want *Flow) []string {
	return append(diffFields(got, want), diffFields(got.senderBlock, want.senderBlock)...)
}

// diffFields lists the fields in which *got differs from *want, a pointer to
// a sender block compared by what it points at.
func diffFields[T any](got, want *T) []string {
	var diffs []string
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		field := func(v reflect.Value) any {
			f := v.Field(i)
			return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
		}
		g, w := field(gv), field(wv)
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
// that key. The connection's peer record, given a block of its own by a
// foreign-source egress, goes the same way as a bare record.
func TestRecycledFlowEqualsFresh(t *testing.T) {
	cfg := DefaultConfig()
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
	b.s.RunFor(3 * vTimeout) // data outstanding, nothing acknowledged: inferred timeout
	b.in(sp, packet.CE, packet.TCPFields{Seq: 1, Ack: seq, Flags: ack | psh}, 700)
	b.out(sp, packet.TCPFields{Seq: seq, Ack: 701, Flags: ack | packet.FlagFIN}, 0)
	b.in(sp, packet.NotECT, packet.TCPFields{Seq: 701, Ack: seq + 1, Flags: ack | packet.FlagFIN}, 0)
	if old.LossEvents() == 0 || old.VTimeouts() == 0 || old.Alpha == initAlpha || old.vcc.String() != "reno" ||
		old.peer == nil || !old.vtArmed || !old.finFwd || !old.finRev || old.cold.resyncSeq == 0 {
		t.Fatalf("the record did not live through what the test is about: %+v", old)
	}
	b.v.ClearPolicy(k)
	oldPeer := old.peer
	b.v.egressHook(packet.Build(b.peer, b.local, packet.NotECT,
		packet.TCPFields{SrcPort: 5001, DstPort: sp, Seq: 900, Ack: seq + 1, Flags: ack | psh, Window: 65535}, 300))
	if oldPeer.inline || oldPeer.senderBlock == b.v.defaults || !oldPeer.issValid {
		t.Fatal("the foreign-source egress did not give the peer record a block of its own")
	}

	b.sweep()
	if b.v.Table.Get(k) != nil || len(b.v.parked[0].recs) != 1 || len(b.v.parked[1].recs) != 1 {
		t.Fatalf("after the sweep: in table %v, %d+%d parked, want both records of the connection parked",
			b.v.Table.Get(k) != nil, len(b.v.parked[0].recs), len(b.v.parked[1].recs))
	}
	// A sender create takes old, a receiver create the peer record.
	b.out(200, packet.TCPFields{Flags: packet.FlagSYN}, 0)
	b.in(201, packet.NotECT, packet.TCPFields{Seq: 1, Flags: psh}, 100)
	reused, reusedPeer := b.v.Table.Get(b.key(200)), b.v.Table.Get(b.key(201).Reverse())
	if reused != old || reusedPeer != oldPeer || b.v.ParkedFlows() != 0 {
		t.Fatalf("the swept records were not reused (%d still parked)", b.v.ParkedFlows())
	}
	// The lists are empty: newFlow makes new records.
	fresh := b.v.newFlow(reused.Key, true)
	// The SYN that created the flow has been through senderEgress.
	fresh.iss, fresh.issValid, fresh.synSeen = 0, true, true
	fresh.SndUna, fresh.SndNxt, fresh.alphaSeq = 1, 1, 1
	freshPeer := b.v.newFlow(reusedPeer.Key, false)
	freshPeer.TotalBytes = 100 // the segment that created it
	for _, d := range append(diffFlowState(reused, fresh), diffFlowState(reusedPeer, freshPeer)...) {
		t.Error(d)
	}
	if reusedPeer.senderBlock != b.v.defaults {
		t.Error("the recycled peer record kept a block of its own")
	}
}

// TestRestoreOntoRecycledRecordActsFresh restores one snapshot, a connection
// with data outstanding, into a vSwitch with parked records of both kinds (a
// restore outside Restart keeps the free lists, as the daemon's does) and into
// one without. An ACK that leaves data outstanding then finds a record on
// which no flow of this life has armed the inactivity deadline, so neither
// arms it: a recycled record must not act on its previous flow's timer. The
// peer record, restored bare onto a recycled one, saves as it was saved.
func TestRestoreOntoRecycledRecordActsFresh(t *testing.T) {
	cfg := DefaultConfig()
	const sp, ack, psh = 100, packet.FlagACK, packet.FlagPSH
	syn := packet.BuildSynOptions(1460, 7, true)
	src := newRecycleBench(t, cfg)
	src.out(sp, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
	src.in(sp, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	for i := uint32(0); i < 3; i++ {
		src.out(sp, packet.TCPFields{Seq: 1 + 1000*i, Ack: 1, Flags: ack | psh}, 1000)
	}
	snap := src.v.SaveSnapshot()

	restored := func(recycle bool) (vtimeouts int64, reused, reusedPeer bool, peerRec flowRecord) {
		b := newRecycleBench(t, cfg)
		if recycle {
			for p := uint16(1000); p < 1004; p++ {
				b.cycle(p) // each FIN arms, and its ACK stops, the deadline
			}
			b.sweep()
			b.out(2000, packet.TCPFields{Flags: packet.FlagSYN}, 0) // past the sweep's epoch
		}
		parked := parkedRecords(b.v)
		b.v.RestoreSnapshot(snap)
		f, peer := b.v.Table.Get(b.key(sp)), b.v.Table.Get(b.key(sp).Reverse())
		if f.senderBlock == b.v.defaults || peer.senderBlock != b.v.defaults {
			t.Fatal("restore gave the sender record no block, or the peer record one")
		}
		peerRec = peer.record()
		b.in(sp, packet.ECT0, packet.TCPFields{Seq: 1, Ack: 1001, Flags: ack}, 0)
		b.s.RunFor(3 * vTimeout)
		return f.VTimeouts(), slices.Contains(parked, f), slices.Contains(parked, peer), peerRec
	}
	fresh, _, _, freshPeer := restored(false)
	recycled, reused, reusedPeer, recycledPeer := restored(true)
	if !reused || !reusedPeer {
		t.Fatalf("the restored flows did not take parked records (sender %v, peer %v): the test compares nothing", reused, reusedPeer)
	}
	if recycled != fresh {
		t.Fatalf("restored onto a recycled record: %d inactivity timeouts, onto a new one: %d", recycled, fresh)
	}
	if recycledPeer != freshPeer {
		t.Fatalf("peer record restored onto a recycled one: %+v, onto a new one: %+v", recycledPeer, freshPeer)
	}
}

// TestEvictedRecordNotReusedInSameCall: ingressRun holds its own direction's
// record across flowFor, and at MaxFlows flowFor evicts closed flows at once —
// here the very record in hand. It must not come back as the new flow inside
// that call; the next packet may have it. The record in hand is a senderFlow,
// or a bare record made by a segment arriving with the host's own source
// address, which the bare create would otherwise take.
func TestEvictedRecordNotReusedInSameCall(t *testing.T) {
	for _, sender := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.MaxFlows = 2
		b := newRecycleBench(t, cfg)
		const sp, ack = 100, packet.FlagACK
		if sender {
			b.out(sp, packet.TCPFields{Flags: packet.FlagSYN}, 0)
			b.out(sp, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack | packet.FlagFIN}, 0)
		} else {
			b.v.ingressHook(packet.Build(b.local, b.peer, packet.NotECT, packet.TCPFields{
				SrcPort: sp, DstPort: 5001, Seq: 1, Flags: packet.FlagFIN, Window: 65535}, 100))
		}
		b.in(sp, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 2, Flags: ack | packet.FlagFIN}, 0)
		own := b.v.Table.Get(b.key(sp))
		if own == nil || !own.finFwd || !own.finRev || own.inline != sender {
			t.Fatalf("sender %v: own direction not closed both ways, or of the wrong kind: %v", sender, own)
		}
		// Leave only the closed record and one live flow: the table is full.
		b.v.Table.Delete(b.key(sp).Reverse())
		b.out(900, packet.TCPFields{Flags: packet.FlagSYN}, 0)
		if b.v.Table.Len() != cfg.MaxFlows {
			t.Fatalf("sender %v: table holds %d records, want %d", sender, b.v.Table.Len(), cfg.MaxFlows)
		}

		// A late data segment of the closed connection: the ACK half finds
		// own, the data half creates the peer's direction, and the create
		// evicts own.
		b.in(sp, packet.ECT0, packet.TCPFields{Seq: 2, Ack: 2, Flags: ack | packet.FlagPSH}, 300)
		created := b.v.Table.Get(b.key(sp).Reverse())
		if created == nil || b.v.Table.Get(b.key(sp)) != nil {
			t.Fatalf("sender %v: the create did not evict the closed record: created %v, old entry %v",
				sender, created, b.v.Table.Get(b.key(sp)))
		}
		if created == own {
			t.Fatalf("sender %v: the record evicted by this call was handed out inside it", sender)
		}
		if l := b.v.freeList(sender); b.v.ParkedFlows() != 1 || len(l.recs) != 1 || l.recs[0] != own || own.Key != b.key(sp) {
			t.Fatalf("sender %v: the evicted record should be parked untouched: %d parked, key %v", sender, b.v.ParkedFlows(), own.Key)
		}
		checkParkedRecords(t, b.v, "eviction")

		// The next packet's create of the kind may take it.
		b.v.Table.Delete(b.key(900))
		if sender {
			b.out(901, packet.TCPFields{Flags: packet.FlagSYN}, 0)
		} else {
			b.in(901, packet.NotECT, packet.TCPFields{Seq: 1, Flags: packet.FlagPSH}, 100)
		}
		if got := b.v.Table.Get(b.key(901)); sender && got != own {
			t.Fatalf("the next call did not reuse the parked senderFlow: got %p, parked %p", got, own)
		}
		if got := b.v.Table.Get(b.key(901).Reverse()); !sender && got != own {
			t.Fatalf("the next call did not reuse the parked bare record: got %p, parked %p", got, own)
		}
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
	// Each connection is one record of each kind.
	kinds := func() (bare, sender int) { return len(b.v.parked[0].recs), len(b.v.parked[1].recs) }
	burst(2500) // 5 000 records
	b.sweep()
	if bare, sender := kinds(); bare != 2500 || sender != 2500 || b.v.ParkedFlows() != 5000 {
		t.Fatalf("%d+%d records parked after the spike was swept, want all 2500 of each kind", bare, sender)
	}
	burst(5) // 10 records, all taken from the lists
	if bare, sender := kinds(); bare != 2495 || sender != 2495 {
		t.Fatalf("%d+%d records parked after 5 creates of each kind, want 2495 each", bare, sender)
	}
	b.sweep()
	if bare, sender := kinds(); bare > 5 || sender > 5 {
		t.Fatalf("%d+%d records parked two sweeps after the spike, want at most the 5 of each kind created since the last one", bare, sender)
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

// TestChurnFreshRecordsPer1000: 64 clients cycle short connections through one
// vSwitch — a handshake, one to sixteen data segments each answered by an
// ACK, a close both ways, then a new port — with a random gap before each
// packet, so the packet-driven lazy sweep (every 4 096 packets once
// GCInterval has passed) sees uneven periods and uneven demand. After a
// warm-up it counts the creates that got a record never seen before, rather
// than one back from a free list, per 1 000 creates. The eighth of slack
// trimParked keeps beyond each period's demand holds the count at 6; trimmed
// to the exact demand, the lists hand back records that the next, busier
// period allocates again, and the count reads 29.
func TestChurnFreshRecordsPer1000(t *testing.T) {
	const clients, warmup, measured, want = 64, 4000, 20000, 6
	b := newRecycleBench(t, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	seen := map[*Flow]bool{} // every record ever in the table, kept alive by the map
	fresh, next := 0, uint16(1024)
	created := func() int { return int(b.v.Stats().FlowsCreated) }
	var run func(sp uint16, step, data int)
	run = func(sp uint16, step, data int) {
		const ack = packet.FlagACK
		syn := packet.BuildSynOptions(1460, 7, true)
		seq := uint32(1 + 1000*(step-3)/2)
		switch last := 3 + 2*data; {
		case step == 0:
			b.out(sp, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
		case step == 1:
			b.in(sp, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
		case step == 2:
			b.out(sp, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack}, 0)
		case step < last && step%2 == 1:
			b.out(sp, packet.TCPFields{Seq: seq, Ack: 1, Flags: ack | packet.FlagPSH}, 1000)
		case step < last:
			b.in(sp, packet.ECT0, packet.TCPFields{Seq: 1, Ack: seq + 1000, Flags: ack}, 0)
		case step == last:
			b.out(sp, packet.TCPFields{Seq: seq, Ack: 1, Flags: ack | packet.FlagFIN}, 0)
		case step == last+1:
			b.in(sp, packet.NotECT, packet.TCPFields{Seq: 1, Ack: seq + 1, Flags: ack | packet.FlagFIN}, 0)
		default:
			b.out(sp, packet.TCPFields{Seq: seq + 1, Ack: 2, Flags: ack}, 0)
			if created() >= warmup+measured {
				return
			}
			sp, next, step, data = next, next+1, -1, 1+rng.Intn(16)
		}
		for _, k := range []FlowKey{b.key(sp), b.key(sp).Reverse()} {
			if f := b.v.Table.Get(k); f != nil && !seen[f] {
				seen[f] = true
				if created() > warmup {
					fresh++
				}
			}
		}
		b.s.ScheduleFunc(1+sim.Duration(rng.Intn(3000)), func() { run(sp, step+1, data) })
	}
	for i := 0; i < clients; i++ {
		sp := next
		next++
		b.s.ScheduleFunc(sim.Duration(rng.Intn(5000)), func() { run(sp, 0, 1+rng.Intn(16)) })
	}
	b.s.RunAll()
	st := b.v.Stats()
	if st.FlowsCreated < warmup+measured || st.FlowsRemoved < warmup {
		t.Fatalf("%d creates and %d removals: the churn never reached the measured window", st.FlowsCreated, st.FlowsRemoved)
	}
	per := fresh * 1000 / int(st.FlowsCreated-warmup)
	t.Logf("%d of %d creates after the warm-up got a fresh record: %d per 1000", fresh, st.FlowsCreated-warmup, per)
	if per != want {
		t.Fatalf("%d fresh records per 1000 creates, want %d", per, want)
	}
}
