package core

// Tests for the reverse-direction link (Table.reverseOf, Flow.peer): whatever
// the datapath, the garbage collector, pressure eviction, the control plane
// and snapshot restore do to the table, a link is mutual and names what a
// probe of the table would. The checker runs after every call of a scripted
// (seeded or fuzzed) stream; the table cases pin the ways a link could go
// stale; the layout test pins where the hot fields sit.

import (
	"bytes"
	"math/rand"
	"slices"
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

// checkReverseLinks asserts the link invariant for every flow in the table,
// f.peer == nil || (f.peer == Get(f.Key.Reverse()) && f.peer.peer == f), and
// that reverseOf agrees with a probe. The second half also re-links every
// flow, so whatever runs next meets a fully linked table.
func checkReverseLinks(t *testing.T, tb *Table, after string) {
	t.Helper()
	for _, f := range tableFlows(tb) {
		want := tb.Get(f.Key.Reverse())
		if f.peer != nil && (f.peer != want || f.peer.peer != f) {
			t.Fatalf("after %s: %v links to %p (which links to %p), table has %p", after, f.Key, f.peer, f.peer.peer, want)
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
		f.peer = nil
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
	opRestartCold
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
	snap  []flowRecord
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
			d.v.RestoreSnapshot(d.snap)
		}
	case opRestartCold:
		d.v.Restart(nil)
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
	"delete", "save", "restore", "restart-cold", "detach-toggle", "advance"}

// playLinkScript runs script on a linked vSwitch and on a reference vSwitch
// whose links are dropped before every call.
func playLinkScript(t *testing.T, script []byte) {
	t.Helper()
	playScript(t, script, "links", func(v *VSwitch) { unlinkAll(v.Table) })
}

// playScript runs script on a vSwitch left alone, checking the link and the
// free-list invariants and the shared sender defaults after every call, and on
// a reference vSwitch that without is applied to before every call; the two
// must be indistinguishable from outside.
func playScript(t *testing.T, script []byte, what string, without func(*VSwitch)) {
	t.Helper()
	full, ref := newLinkDriver(t, nil), newLinkDriver(t, without)
	for i := 0; i+1 < len(script); i += 2 {
		kind, c := int(script[i])%linkOpKinds, int(script[i+1])%linkConns
		full.step(kind, c)
		checkReverseLinks(t, full.v.Table, linkOpNames[kind])
		checkParkedRecords(t, full.v, linkOpNames[kind])
		checkSenderDefaults(t, full.v)
		ref.step(kind, c)
	}
	checkSenderDefaults(t, ref.v)
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
	if a, b := full.v.SaveSnapshot(), ref.v.SaveSnapshot(); !slices.Equal(a, b) {
		t.Fatalf("final tables checkpoint differently with and without %s", what)
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
		if n := tb.Sweep(func(f *Flow) bool { return f != b }); n != 1 {
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

	t.Run("removing either end unlinks both", func(t *testing.T) {
		for _, end := range []FlowKey{ka, kb} {
			for _, sweep := range []bool{false, true} {
				tb := NewTable()
				a, b := mk(tb, ka), mk(tb, kb)
				if tb.reverseOf(a) != b || b.peer != a {
					t.Fatal("link not established both ways")
				}
				if sweep {
					tb.Sweep(func(f *Flow) bool { return f.Key != end })
				} else {
					tb.Delete(end)
				}
				if a.peer != nil || b.peer != nil || tb.Len() != 1 {
					t.Fatalf("removing %v (sweep %v): a.peer=%p b.peer=%p, %d left", end, sweep, a.peer, b.peer, tb.Len())
				}
			}
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

	t.Run("FIN path: the swept partner leaves no link behind", func(t *testing.T) {
		v, host, s := loneVSwitch(t, DefaultConfig())
		remote := packet.MakeAddr(10, 0, 0, 2)
		k := FlowKey{Src: host.Addr, Dst: remote, SPort: 100, DPort: 200}
		egress(v, dataPkt(host.Addr, remote, 100, 200, 1, 1000))
		egress(v, packet.Build(host.Addr, remote, packet.NotECT, packet.TCPFields{
			SrcPort: 100, DstPort: 200, Seq: 1001, Ack: 1,
			Flags: packet.FlagACK | packet.FlagFIN, Window: 65535}, 0))
		ingress(v, packet.Build(remote, host.Addr, packet.NotECT, packet.TCPFields{
			SrcPort: 200, DstPort: 100, Seq: 1, Ack: 1002,
			Flags: packet.FlagACK | packet.FlagFIN, Window: 65535}, 0))
		a, b := v.Table.Get(k), v.Table.Get(k.Reverse())
		if a == nil || b == nil || !a.finFwd || !a.finRev || !b.finFwd || !b.finRev || b.peer != a {
			t.Fatalf("after both FINs: a=%p b=%p, want both closed both ways and b linked to a", a, b)
		}
		checkReverseLinks(t, v.Table, "fin")
		// The local FIN left before b existed; b takes it from a when the
		// remote's FIN creates it, so both go after GCInterval and neither
		// keeps a link to the other on the free list.
		v.sweepNow(s.Now() + 2*v.Cfg.GCInterval)
		if v.Table.Get(k) != nil || v.Table.Get(k.Reverse()) != nil {
			t.Fatal("the sweep did not take both closed records")
		}
		if a.peer != nil || b.peer != nil {
			t.Fatalf("a swept record still links: a→%p b→%p", a.peer, b.peer)
		}
		checkParkedRecords(t, v, "fin sweep")
	})
}

// TestFlowHotFieldsLayout pins the packing the per-packet cost rests on: with
// 10k+ flows every line of a record is a miss, so what every packet touches,
// and the key an index probe confirms, is the record's one line, and
// everything the sender module touches per data segment and per ACK is in the
// sender block, the next two lines of a senderFlow. Naming a field by the
// struct it is listed under also pins the struct it is in.
// TestFlowSizeClass pins the totals, which put every record on a line
// boundary.
func TestFlowHotFieldsLayout(t *testing.T) {
	var f Flow
	var b senderBlock
	var sf senderFlow
	type field struct {
		name      string
		off, size uintptr
	}
	for _, lim := range []struct {
		where      string
		start, end uintptr // in a senderFlow
		base       uintptr // of the fields' struct in a senderFlow
		fields     []field
	}{
		// Every packet: link, liveness, the block, the policy, the receiver
		// module, the key, the flags and the law.
		{"the record's line", 0, 64, 0, []field{
			{"peer", unsafe.Offsetof(f.peer), unsafe.Sizeof(f.peer)},
			{"lastActive", unsafe.Offsetof(f.lastActive), unsafe.Sizeof(f.lastActive)},
			{"senderBlock", unsafe.Offsetof(f.senderBlock), unsafe.Sizeof(f.senderBlock)},
			{"Policy", unsafe.Offsetof(f.Policy), unsafe.Sizeof(f.Policy)},
			{"TotalBytes", unsafe.Offsetof(f.TotalBytes), unsafe.Sizeof(f.TotalBytes)},
			{"MarkedBytes", unsafe.Offsetof(f.MarkedBytes), unsafe.Sizeof(f.MarkedBytes)},
			{"Key", unsafe.Offsetof(f.Key), unsafe.Sizeof(f.Key)},
			{"iss", unsafe.Offsetof(f.iss), unsafe.Sizeof(f.iss)},
			{"GuestECN", unsafe.Offsetof(f.GuestECN), unsafe.Sizeof(f.GuestECN)},
			{"finFwd", unsafe.Offsetof(f.finFwd), unsafe.Sizeof(f.finFwd)},
			{"finRev", unsafe.Offsetof(f.finRev), unsafe.Sizeof(f.finRev)},
			{"isUDP", unsafe.Offsetof(f.isUDP), unsafe.Sizeof(f.isUDP)},
			{"synSeen", unsafe.Offsetof(f.synSeen), unsafe.Sizeof(f.synSeen)},
			{"synAckSeen", unsafe.Offsetof(f.synAckSeen), unsafe.Sizeof(f.synAckSeen)},
			{"vcc", unsafe.Offsetof(f.vcc), unsafe.Sizeof(f.vcc)},
			{"inline", unsafe.Offsetof(f.inline), unsafe.Sizeof(f.inline)},
		}},
		// Per data segment and per ACK (processFeedbackAndAck, cutWindow,
		// senderEgress): tracking, the window, α, feedback and the cold
		// pointer.
		{"the sender block's two lines", 64, 192, unsafe.Offsetof(sf.s), []field{
			{"SndUna", unsafe.Offsetof(b.SndUna), unsafe.Sizeof(b.SndUna)},
			{"SndNxt", unsafe.Offsetof(b.SndNxt), unsafe.Sizeof(b.SndNxt)},
			{"maxInflight", unsafe.Offsetof(b.maxInflight), unsafe.Sizeof(b.maxInflight)},
			{"CwndBytes", unsafe.Offsetof(b.CwndBytes), unsafe.Sizeof(b.CwndBytes)},
			{"SsthreshBytes", unsafe.Offsetof(b.SsthreshBytes), unsafe.Sizeof(b.SsthreshBytes)},
			{"Alpha", unsafe.Offsetof(b.Alpha), unsafe.Sizeof(b.Alpha)},
			{"alphaSeq", unsafe.Offsetof(b.alphaSeq), unsafe.Sizeof(b.alphaSeq)},
			{"cutSeq", unsafe.Offsetof(b.cutSeq), unsafe.Sizeof(b.cutSeq)},
			{"prevCwndBytes", unsafe.Offsetof(b.prevCwndBytes), unsafe.Sizeof(b.prevCwndBytes)},
			{"lastFeedbackAt", unsafe.Offsetof(b.lastFeedbackAt), unsafe.Sizeof(b.lastFeedbackAt)},
			{"cold", unsafe.Offsetof(b.cold), unsafe.Sizeof(b.cold)},
			{"lastAckWire", unsafe.Offsetof(b.lastAckWire), unsafe.Sizeof(b.lastAckWire)},
			{"MSS", unsafe.Offsetof(b.MSS), unsafe.Sizeof(b.MSS)},
			{"DupAcks", unsafe.Offsetof(b.DupAcks), unsafe.Sizeof(b.DupAcks)},
			{"vtimeout", unsafe.Offsetof(b.vtimeout), unsafe.Sizeof(b.vtimeout)},
			{"lastTotal", unsafe.Offsetof(b.lastTotal), unsafe.Sizeof(b.lastTotal)},
			{"lastMarked", unsafe.Offsetof(b.lastMarked), unsafe.Sizeof(b.lastMarked)},
			{"windowTotal", unsafe.Offsetof(b.windowTotal), unsafe.Sizeof(b.windowTotal)},
			{"windowMarked", unsafe.Offsetof(b.windowMarked), unsafe.Sizeof(b.windowMarked)},
			{"lastWndRaw", unsafe.Offsetof(b.lastWndRaw), unsafe.Sizeof(b.lastWndRaw)},
			{"vtArmed", unsafe.Offsetof(b.vtArmed), unsafe.Sizeof(b.vtArmed)},
			{"issValid", unsafe.Offsetof(b.issValid), unsafe.Sizeof(b.issValid)},
			{"resync", unsafe.Offsetof(b.resync), unsafe.Sizeof(b.resync)},
			{"WScaleKnown", unsafe.Offsetof(b.WScaleKnown), unsafe.Sizeof(b.WScaleKnown)},
			{"PeerWScale", unsafe.Offsetof(b.PeerWScale), unsafe.Sizeof(b.PeerWScale)},
			{"lastWndSeen", unsafe.Offsetof(b.lastWndSeen), unsafe.Sizeof(b.lastWndSeen)},
		}},
	} {
		for _, fld := range lim.fields {
			if start, end := lim.base+fld.off, lim.base+fld.off+fld.size; start < lim.start || end > lim.end {
				t.Errorf("%s spans bytes [%d, %d) of a senderFlow, outside %s [%d, %d)", fld.name, start, end, lim.where, lim.start, lim.end)
			}
		}
	}
}
