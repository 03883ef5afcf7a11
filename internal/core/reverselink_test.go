package core

// Tests for the reverse-direction link (Table.reverseOf, Flow.peer): whatever
// the datapath, the garbage collector, pressure eviction, the control plane
// and snapshot restore do to the table, the link must answer exactly what a
// probe of the table would. The checker runs after every call of a scripted
// (seeded or fuzzed) stream; the table cases pin the four ways a link goes
// stale; the layout test pins where the hot fields sit.

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// tableFlows lists the table's entries (collected first, so that a check may
// change the table while it walks them).
func tableFlows(tb *Table) []*Flow {
	var fs []*Flow
	tb.Range(func(f *Flow) { fs = append(fs, f) })
	return fs
}

// checkReverseLinks asserts the link invariant for every flow in the table:
// a link that claims to be valid names the table's current entry, and
// reverseOf agrees with a probe. The second half also re-links every flow,
// so whatever runs next meets a fully linked table.
func checkReverseLinks(t *testing.T, tb *Table, after string) {
	t.Helper()
	for _, f := range tableFlows(tb) {
		want := tb.Get(f.Key.Reverse())
		if f.peer != nil && f.peerGen == tb.gen && f.peer != want {
			t.Fatalf("after %s: %v holds a valid link to %p, table has %p", after, f.Key, f.peer, want)
		}
		if got := tb.reverseOf(f); got != want {
			t.Fatalf("after %s: reverseOf(%v) = %p, Table.Get = %p", after, f.Key, got, want)
		}
	}
}

// unlinkAll drops every link, so the next packet probes the table for both
// directions the way the datapath did before the link existed.
func unlinkAll(tb *Table) {
	for _, f := range tableFlows(tb) {
		f.peer, f.peerGen = nil, 0
	}
}

const linkConns = 16

// linkOp kinds; a script is a sequence of (kind, connection) byte pairs.
const (
	opSynOut = iota
	opSynAckIn
	opSynIn
	opSynAckOut
	opDataOut
	opPackIn
	opFackIn
	opDataIn
	opAckOut
	opFinOut
	opFinIn
	opSweepClosed
	opSweepIdle
	opDelete
	opSave
	opRestore
	opRestoreCorrupt
	opDetachToggle
	opAdvance
	linkOpKinds
)

// linkDriver plays a script against one vSwitch with a table smaller than the
// connection set, so creates run into pressure eviction.
type linkDriver struct {
	t     *testing.T
	v     *VSwitch
	s     *sim.Simulator
	local packet.Addr
	seq   [linkConns]uint32 // our next data byte per connection
	fb    [linkConns]uint32 // the peer's cumulative feedback total
	snap  []byte
	// rows records what each packet call returned, for the differential.
	rows [][]byte
	// before, when set, runs ahead of each call: it takes from the reference
	// vSwitch what the mechanism under test would have kept for it.
	before func(*VSwitch)
}

func newLinkDriver(t *testing.T, before func(*VSwitch)) *linkDriver {
	cfg := DefaultConfig()
	cfg.MTU = 1500
	cfg.MaxFlows = 20 // 16 connections are 32 records
	cfg.GCInterval = 50 * sim.Microsecond
	cfg.IdleTimeout = 400 * sim.Microsecond
	v, host, s := loneVSwitch(t, cfg)
	d := &linkDriver{t: t, v: v, s: s, local: host.Addr, before: before}
	for i := range d.seq {
		d.seq[i] = 1
	}
	return d
}

func (d *linkDriver) remote(c int) packet.Addr { return packet.MakeAddr(10, 0, 1, byte(c)) }

// key is connection c's local→remote direction.
func (d *linkDriver) key(c int) FlowKey {
	return FlowKey{Src: d.local, Dst: d.remote(c), SPort: uint16(1000 + c), DPort: 5001}
}

func (d *linkDriver) pkt(c int, out bool, ecn packet.ECN, f packet.TCPFields, payload int) {
	k := d.key(c)
	src, dst := k.Src, k.Dst
	f.SrcPort, f.DstPort = k.SPort, k.DPort
	if !out {
		src, dst = dst, src
		f.SrcPort, f.DstPort = k.DPort, k.SPort
	}
	f.Window = 65535
	p := packet.Build(src, dst, ecn, f, payload)
	var res, extra *packet.Packet
	if out {
		res, extra = d.v.egressHook(p)
	} else {
		res, extra = d.v.ingressHook(p)
	}
	for _, q := range []*packet.Packet{res, extra} {
		if q == nil {
			d.rows = append(d.rows, nil)
		} else {
			d.rows = append(d.rows, append([]byte(nil), q.Buf...))
		}
	}
}

func feedbackOpt(kind byte, total, marked uint32) []byte {
	var opt [packet.PACKOptionLen]byte
	packet.EncodePACK(opt[:], packet.PACKInfo{TotalBytes: total, MarkedBytes: marked})
	opt[0] = kind
	return opt[:]
}

func (d *linkDriver) step(kind, c int) {
	if d.before != nil {
		d.before(d.v)
	}
	syn := packet.BuildSynOptions(1460, 7, true)
	const ack, psh = packet.FlagACK, packet.FlagPSH
	switch kind {
	case opSynOut:
		d.pkt(c, true, packet.NotECT, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
	case opSynAckIn:
		d.pkt(c, false, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	case opSynIn:
		d.pkt(c, false, packet.NotECT, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
	case opSynAckOut:
		d.pkt(c, true, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	case opDataOut:
		d.pkt(c, true, packet.NotECT, packet.TCPFields{Seq: d.seq[c], Ack: 1, Flags: ack | psh}, 1000)
		d.seq[c] += 1000
	case opPackIn:
		d.fb[c] += 1000
		d.pkt(c, false, packet.ECT0, packet.TCPFields{Seq: 1, Ack: d.seq[c], Flags: ack,
			Options: feedbackOpt(packet.OptPACK, d.fb[c], d.fb[c]/4)}, 0)
	case opFackIn:
		d.fb[c] += 1000
		d.pkt(c, false, packet.NotECT, packet.TCPFields{Seq: 1, Ack: d.seq[c], Flags: ack,
			Options: feedbackOpt(packet.OptFACK, d.fb[c], 0)}, 0)
	case opDataIn:
		ecn := packet.ECT0
		if c%3 == 0 {
			ecn = packet.CE
		}
		d.pkt(c, false, ecn, packet.TCPFields{Seq: 1, Ack: d.seq[c], Flags: ack | psh}, 1200)
	case opAckOut:
		d.pkt(c, true, packet.NotECT, packet.TCPFields{Seq: d.seq[c], Ack: 1201, Flags: ack}, 0)
	case opFinOut:
		d.pkt(c, true, packet.NotECT, packet.TCPFields{Seq: d.seq[c], Ack: 1, Flags: ack | packet.FlagFIN}, 0)
	case opFinIn:
		d.pkt(c, false, packet.NotECT, packet.TCPFields{Seq: 1201, Ack: d.seq[c], Flags: ack | packet.FlagFIN}, 0)
	case opSweepClosed:
		d.v.sweepNow(d.s.Now() + 2*d.v.Cfg.GCInterval)
	case opSweepIdle:
		d.v.sweepNow(d.s.Now() + d.v.Cfg.IdleTimeout/2 + sim.Duration(c)*d.v.Cfg.IdleTimeout/16)
	case opDelete:
		k := d.key(c / 2)
		if c%2 == 1 {
			k = k.Reverse()
		}
		d.v.Table.Delete(k)
	case opSave:
		d.snap = d.v.SaveSnapshot()
	case opRestore:
		if d.snap != nil {
			if err := d.v.RestoreSnapshot(d.snap); err != nil {
				d.t.Fatalf("restore of a saved snapshot: %v", err)
			}
		}
	case opRestoreCorrupt:
		if d.v.RestoreSnapshot([]byte("ACDCSNAP, but not really")) == nil {
			d.t.Fatal("corrupt restore did not error")
		}
	case opDetachToggle:
		if d.v.Attached() {
			d.v.Detach()
		} else {
			d.v.Reattach()
		}
	case opAdvance:
		d.s.RunFor(sim.Duration(1+c) * 20 * sim.Microsecond)
	}
}

var linkOpNames = [linkOpKinds]string{"syn-out", "synack-in", "syn-in", "synack-out", "data-out",
	"pack-in", "fack-in", "data-in", "ack-out", "fin-out", "fin-in", "sweep-closed", "sweep-idle",
	"delete", "save", "restore", "restore-corrupt", "detach-toggle", "advance"}

// playLinkScript runs script on a linked vSwitch and on a reference vSwitch
// whose links are dropped before every call.
func playLinkScript(t *testing.T, script []byte) {
	t.Helper()
	playScript(t, script, "links", func(v *VSwitch) { unlinkAll(v.Table) })
}

// playScript runs script on a vSwitch left alone, checking the link and the
// free-list invariants after every call, and on a reference vSwitch that
// without is applied to before every call; the two must be indistinguishable
// from outside.
func playScript(t *testing.T, script []byte, what string, without func(*VSwitch)) {
	t.Helper()
	full, ref := newLinkDriver(t, nil), newLinkDriver(t, without)
	for i := 0; i+1 < len(script); i += 2 {
		kind, c := int(script[i])%linkOpKinds, int(script[i+1])%linkConns
		full.step(kind, c)
		checkReverseLinks(t, full.v.Table, linkOpNames[kind])
		checkParkedRecords(t, full.v, linkOpNames[kind])
		ref.step(kind, c)
	}
	if len(full.rows) != len(ref.rows) {
		t.Fatalf("%d output rows with %s, %d without", len(full.rows), what, len(ref.rows))
	}
	for i := range full.rows {
		if !bytes.Equal(full.rows[i], ref.rows[i]) {
			t.Fatalf("output %d differs:\nwith %s    %x\nwithout %x", i, what, full.rows[i], ref.rows[i])
		}
	}
	if a, b := full.v.Stats(), ref.v.Stats(); a != b {
		t.Fatalf("stats differ:\nwith %s    %+v\nwithout %+v", what, a, b)
	}
	if a, b := full.v.SaveSnapshot(), ref.v.SaveSnapshot(); !bytes.Equal(a, b) {
		t.Fatalf("final tables serialize differently with and without %s", what)
	}
}

// linkScript draws a script whose mix keeps connections alive long enough to
// be linked before something removes them.
func linkScript(rng *rand.Rand, n int) []byte {
	script := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		kind := rng.Intn(linkOpKinds)
		if kind >= opSweepClosed && rng.Intn(3) != 0 {
			kind = rng.Intn(opSweepClosed) // two thirds of the removers become packets
		}
		script = append(script, byte(kind), byte(rng.Intn(linkConns)))
	}
	return script
}

// TestReverseLinkDifferential is the seeded form of FuzzReverseLinkMatchesTable.
func TestReverseLinkDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		playLinkScript(t, linkScript(rand.New(rand.NewSource(seed)), 1500))
	}
}

// FuzzReverseLinkMatchesTable lets the fuzzer pick the packets and where the
// sweeps, evictions, deletes, restores and detaches fall between them (hand-
// written seeds for each remover are in testdata/fuzz).
func FuzzReverseLinkMatchesTable(f *testing.F) {
	f.Add(linkScript(rand.New(rand.NewSource(99)), 200))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		playLinkScript(t, script)
	})
}

func TestReverseLinkCases(t *testing.T) {
	ka := FlowKey{Src: packet.MakeAddr(10, 0, 0, 1), Dst: packet.MakeAddr(10, 0, 0, 2), SPort: 100, DPort: 200}
	kb := ka.Reverse()
	mk := func(tb *Table, k FlowKey) *Flow {
		f, _ := tb.GetOrCreate(k, func() *Flow { return &Flow{Key: k} })
		return f
	}

	t.Run("reverse created after forward: nil is never cached", func(t *testing.T) {
		tb := NewTable()
		a := mk(tb, ka)
		if got := tb.reverseOf(a); got != nil {
			t.Fatalf("reverseOf on a one-direction table = %p", got)
		}
		b := mk(tb, kb)
		if got := tb.reverseOf(a); got != b {
			t.Fatalf("reverseOf after the reverse flow appeared = %p, want %p", got, b)
		}
		if tb.reverseOf(b) != a {
			t.Fatal("the other direction does not resolve")
		}
	})

	t.Run("reverse swept then re-created: new record, not the old", func(t *testing.T) {
		tb := NewTable()
		a, b := mk(tb, ka), mk(tb, kb)
		if tb.reverseOf(a) != b {
			t.Fatal("link not established")
		}
		if n := tb.SweepRange(0, numShards, func(f *Flow) bool { return f != b }); n != 1 {
			t.Fatalf("swept %d", n)
		}
		if got := tb.reverseOf(a); got != nil {
			t.Fatalf("reverseOf after the sweep = %p (old record %p)", got, b)
		}
		b2 := mk(tb, kb)
		if got := tb.reverseOf(a); got != b2 || got == b {
			t.Fatalf("reverseOf after re-create = %p, want the new record %p (old %p)", got, b2, b)
		}
	})

	t.Run("Clear invalidates from its start, even on an empty table", func(t *testing.T) {
		tb := NewTable()
		g := tb.gen
		if tb.Clear() != 0 || tb.gen == g {
			t.Fatal("Clear of an empty table left the generation alone")
		}
	})

	t.Run("Clear between two packets of one connection", func(t *testing.T) {
		v, host, _ := loneVSwitch(t, DefaultConfig())
		remote := packet.MakeAddr(10, 0, 0, 2)
		k := FlowKey{Src: host.Addr, Dst: remote, SPort: 100, DPort: 200}
		ingress(v, dataPkt(remote, host.Addr, 200, 100, 1, 500)) // creates the reverse record
		egress(v, dataPkt(host.Addr, remote, 100, 200, 1, 1000)) // creates and links the forward one
		oldA, oldB := v.Table.Get(k), v.Table.Get(k.Reverse())
		if oldA == nil || oldB == nil || oldA.peer != oldB {
			t.Fatalf("not linked before Clear: a=%p b=%p a.peer=%p", oldA, oldB, oldA.peer)
		}
		v.resetTable()
		// Egress ACK: adopts nothing (pure ACK), finds no reverse record.
		out, extra := v.EgressPath(ackPkt(host.Addr, remote, 100, 200, 501, 65535))
		if out == nil || extra != nil || packet.FindOption(out.TCP().Options(), packet.OptPACK) != nil {
			t.Fatal("ACK after Clear carried feedback from a record that is gone")
		}
		egress(v, dataPkt(host.Addr, remote, 100, 200, 1001, 1000))
		ingress(v, dataPkt(remote, host.Addr, 200, 100, 501, 500))
		a, b := v.Table.Get(k), v.Table.Get(k.Reverse())
		if a == nil || b == nil || a == oldA || b == oldB {
			t.Fatalf("records not re-created: a=%p (old %p) b=%p (old %p)", a, oldA, b, oldB)
		}
		if got := v.Table.reverseOf(a); got != b {
			t.Fatalf("reverseOf after Clear = %p, want %p (old %p)", got, b, oldB)
		}
		total := b.TotalBytes
		if total != 500 {
			t.Fatalf("new receive record counted %d bytes, want 500 (the old one's 500 must not carry over)", total)
		}
		checkReverseLinks(t, v.Table, "clear")
	})

	t.Run("FIN path marks the other direction and leaves its own record unlinked", func(t *testing.T) {
		v, host, _ := loneVSwitch(t, DefaultConfig())
		remote := packet.MakeAddr(10, 0, 0, 2)
		k := FlowKey{Src: host.Addr, Dst: remote, SPort: 100, DPort: 200}
		egress(v, dataPkt(host.Addr, remote, 100, 200, 1, 1000))
		fin := packet.Build(remote, host.Addr, packet.NotECT, packet.TCPFields{
			SrcPort: 200, DstPort: 100, Seq: 1, Ack: 1001,
			Flags: packet.FlagACK | packet.FlagFIN, Window: 65535}, 0)
		ingress(v, fin)
		a, b := v.Table.Get(k), v.Table.Get(k.Reverse())
		if a == nil || b == nil {
			t.Fatalf("records missing: a=%p b=%p", a, b)
		}
		aRev := a.finRev
		bFwd := b.finFwd
		if !bFwd || !aRev {
			t.Fatalf("FIN in: finFwd on its own record %v, finRev on the other %v", bFwd, aRev)
		}
		// b stays in the table IdleTimeout − GCInterval longer than a; a
		// link from it would pin the swept record for that long.
		if b.peer != nil {
			t.Fatalf("the record the FIN arrived on holds a link (%p) to the one that is swept first", b.peer)
		}
		checkReverseLinks(t, v.Table, "fin")
	})
}

// TestFlowHotFieldsLayout pins the packing the per-packet cost rests on: with
// 10k+ flows every line of a record is a miss, so what every packet touches
// ends inside the first cache line, and everything the sender module touches
// per data segment and per ACK inside the first three. TestFlowSizeClass pins
// the total, which puts every record on a line boundary.
func TestFlowHotFieldsLayout(t *testing.T) {
	var f Flow
	type field struct {
		name      string
		off, size uintptr
	}
	for _, lim := range []struct {
		bytes  uintptr
		fields []field
	}{
		// Every packet: link, liveness, the receiver module, the flags.
		{64, []field{
			{"iss", unsafe.Offsetof(f.iss), unsafe.Sizeof(f.iss)},
			{"peer", unsafe.Offsetof(f.peer), unsafe.Sizeof(f.peer)},
			{"peerGen", unsafe.Offsetof(f.peerGen), unsafe.Sizeof(f.peerGen)},
			{"lastActive", unsafe.Offsetof(f.lastActive), unsafe.Sizeof(f.lastActive)},
			{"TotalBytes", unsafe.Offsetof(f.TotalBytes), unsafe.Sizeof(f.TotalBytes)},
			{"MarkedBytes", unsafe.Offsetof(f.MarkedBytes), unsafe.Sizeof(f.MarkedBytes)},
			{"GuestECN", unsafe.Offsetof(f.GuestECN), unsafe.Sizeof(f.GuestECN)},
			{"issValid", unsafe.Offsetof(f.issValid), unsafe.Sizeof(f.issValid)},
			{"resync", unsafe.Offsetof(f.resync), unsafe.Sizeof(f.resync)},
			{"finFwd", unsafe.Offsetof(f.finFwd), unsafe.Sizeof(f.finFwd)},
			{"finRev", unsafe.Offsetof(f.finRev), unsafe.Sizeof(f.finRev)},
			{"isUDP", unsafe.Offsetof(f.isUDP), unsafe.Sizeof(f.isUDP)},
			{"WScaleKnown", unsafe.Offsetof(f.WScaleKnown), unsafe.Sizeof(f.WScaleKnown)},
			{"PeerWScale", unsafe.Offsetof(f.PeerWScale), unsafe.Sizeof(f.PeerWScale)},
		}},
		// Per data segment and per ACK (processFeedbackAndAck, cutWindow,
		// senderEgress): tracking, feedback, the window, α, the policy and
		// the law.
		{192, []field{
			{"lastAckWire", unsafe.Offsetof(f.lastAckWire), unsafe.Sizeof(f.lastAckWire)},
			{"MSS", unsafe.Offsetof(f.MSS), unsafe.Sizeof(f.MSS)},
			{"DupAcks", unsafe.Offsetof(f.DupAcks), unsafe.Sizeof(f.DupAcks)},
			{"SndUna", unsafe.Offsetof(f.SndUna), unsafe.Sizeof(f.SndUna)},
			{"SndNxt", unsafe.Offsetof(f.SndNxt), unsafe.Sizeof(f.SndNxt)},
			{"maxInflight", unsafe.Offsetof(f.maxInflight), unsafe.Sizeof(f.maxInflight)},
			{"inactivity", unsafe.Offsetof(f.inactivity), unsafe.Sizeof(f.inactivity)},
			{"lastTotal", unsafe.Offsetof(f.lastTotal), unsafe.Sizeof(f.lastTotal)},
			{"lastMarked", unsafe.Offsetof(f.lastMarked), unsafe.Sizeof(f.lastMarked)},
			{"windowTotal", unsafe.Offsetof(f.windowTotal), unsafe.Sizeof(f.windowTotal)},
			{"windowMarked", unsafe.Offsetof(f.windowMarked), unsafe.Sizeof(f.windowMarked)},
			{"CwndBytes", unsafe.Offsetof(f.CwndBytes), unsafe.Sizeof(f.CwndBytes)},
			{"SsthreshBytes", unsafe.Offsetof(f.SsthreshBytes), unsafe.Sizeof(f.SsthreshBytes)},
			{"Alpha", unsafe.Offsetof(f.Alpha), unsafe.Sizeof(f.Alpha)},
			{"alphaSeq", unsafe.Offsetof(f.alphaSeq), unsafe.Sizeof(f.alphaSeq)},
			{"cutSeq", unsafe.Offsetof(f.cutSeq), unsafe.Sizeof(f.cutSeq)},
			{"prevCwndBytes", unsafe.Offsetof(f.prevCwndBytes), unsafe.Sizeof(f.prevCwndBytes)},
			{"lastFeedbackAt", unsafe.Offsetof(f.lastFeedbackAt), unsafe.Sizeof(f.lastFeedbackAt)},
			{"fbStaleMark", unsafe.Offsetof(f.fbStaleMark), unsafe.Sizeof(f.fbStaleMark)},
			{"Policy", unsafe.Offsetof(f.Policy), unsafe.Sizeof(f.Policy)},
			{"lastWndRaw", unsafe.Offsetof(f.lastWndRaw), unsafe.Sizeof(f.lastWndRaw)},
			{"lastWndSeen", unsafe.Offsetof(f.lastWndSeen), unsafe.Sizeof(f.lastWndSeen)},
			{"vcc", unsafe.Offsetof(f.vcc), unsafe.Sizeof(f.vcc)},
		}},
	} {
		for _, fld := range lim.fields {
			if end := fld.off + fld.size; end > lim.bytes {
				t.Errorf("%s ends at byte %d, outside the first %d", fld.name, end, lim.bytes)
			}
		}
	}
}
