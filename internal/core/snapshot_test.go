package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"

	"acdc/internal/packet"
)

// packAck builds an ACK carrying PACK feedback (cumulative counters), the
// packet that drives the sender module's α loop and the resync machine.
func packAck(src, dst packet.Addr, sp, dp uint16, ack uint32, wnd uint16, total, marked uint32) *packet.Packet {
	opt := make([]byte, packet.PACKOptionLen)
	packet.EncodePACK(opt, packet.PACKInfo{TotalBytes: total, MarkedBytes: marked})
	return packet.Build(src, dst, packet.NotECT, packet.TCPFields{
		SrcPort: sp, DstPort: dp, Seq: 1, Ack: ack,
		Flags: packet.FlagACK, Window: wnd, Options: opt,
	}, 0)
}

// populatedVSwitch builds a vSwitch carrying richly-varied flow state: one
// handshake flow with feedback history and learned window scale, one
// mid-stream adoption on a per-flow reno policy, and one receiver-module
// flow with CE-marked byte counters.
func populatedVSwitch(t *testing.T) (*VSwitch, packet.Addr, packet.Addr) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FlowPolicy = func(k FlowKey) Policy {
		p := DefaultPolicy()
		if k.DPort == 443 {
			p.VCC = "reno"
			p.Beta = 0.5
			p.RwndClampBytes = 123_456
		}
		return p
	}
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)

	// Flow 1: full handshake (iss=0 keeps wire seq == absolute offset), one
	// data segment, PACK feedback with marked bytes (moves α, SndUna,
	// lastTotal/lastMarked and triggers a window cut).
	egress(v, packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 10, DstPort: 20, Seq: 0, Flags: packet.FlagSYN, Window: 65535,
		Options: packet.BuildSynOptions(1400, 0, true),
	}, 0))
	ingress(v, packet.Build(peer, host.Addr, packet.NotECT, packet.TCPFields{
		SrcPort: 20, DstPort: 10, Seq: 5000, Ack: 1,
		Flags: packet.FlagSYN | packet.FlagACK | packet.FlagECE, Window: 65535,
		Options: packet.BuildSynOptions(1400, 2, true),
	}, 0))
	egress(v, dataPkt(host.Addr, peer, 10, 20, 1, 1400))
	ingress(v, packAck(peer, host.Addr, 20, 10, 1401, 65535, 1400, 1400))

	// Flow 2: mid-stream adoption under the reno policy (no handshake seen).
	egress(v, dataPkt(host.Addr, peer, 30, 443, 777_000, 1000))

	// Flow 3: receiver module counting CE-marked peer data.
	ingress(v, packet.Build(peer, host.Addr, packet.CE, packet.TCPFields{
		SrcPort: 50, DstPort: 60, Seq: 1, Ack: 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
	}, 900))

	if v.Table.Len() < 3 {
		t.Fatalf("expected ≥3 flows, have %d", v.Table.Len())
	}
	return v, host.Addr, peer
}

// records reads every non-UDP flow's serialized form, keyed for comparison.
func records(v *VSwitch) map[FlowKey]flowRecord {
	out := map[FlowKey]flowRecord{}
	v.Table.Range(func(f *Flow) {
		if !f.isUDP {
			out[f.Key] = f.record()
		}
	})
	return out
}

func TestSnapshotRoundTripLossless(t *testing.T) {
	// Every enforcement-affecting field must survive save → restore exactly.
	// flowRecord is the pin: record() collects the full enforcement
	// state, and equality here fails if restore drops or distorts any of it.
	a, _, _ := populatedVSwitch(t)
	want := records(a)
	snap := a.SaveSnapshot()

	b, _, _ := loneVSwitch(t, DefaultConfig())
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := records(b)
	if len(got) != len(want) {
		t.Fatalf("restored %d flows, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("flow %+v missing after restore", k)
		}
		if g != w {
			t.Errorf("flow %+v state drifted:\n got %+v\nwant %+v", k, g, w)
		}
	}
	st := b.Stats()
	if st.SnapshotRestores != 1 || st.SnapshotCorrupt != 0 {
		t.Fatalf("restore counters: %+v", st)
	}
	if a.Stats().SnapshotSaves != 1 {
		t.Fatalf("SnapshotSaves = %d", a.Stats().SnapshotSaves)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Identical tables must serialize to identical bytes (records are sorted
	// by key, not map order), so checkpoint diffing works.
	v, _, _ := populatedVSwitch(t)
	if !bytes.Equal(v.SaveSnapshot(), v.SaveSnapshot()) {
		t.Fatal("two snapshots of an unchanged table differ")
	}
}

func TestSnapshotCorruptFailsOpen(t *testing.T) {
	a, _, _ := populatedVSwitch(t)
	snap := a.SaveSnapshot()

	mutate := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"tiny":         func(b []byte) []byte { return b[:8] },
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped body": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"flipped crc":  func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
	}
	for name, mut := range mutate {
		t.Run(name, func(t *testing.T) {
			// The victim already tracks a flow: fail-open must reset to a
			// fresh table, not leave half-restored or stale state behind.
			b, bhost, _ := loneVSwitch(t, DefaultConfig())
			v := append([]byte(nil), snap...)
			egress(b, dataPkt(bhost.Addr, packet.MakeAddr(10, 9, 9, 9), 1, 2, 100, 100))
			if err := b.RestoreSnapshot(mut(v)); err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
			if n := b.Table.Len(); n != 0 {
				t.Fatalf("table has %d flows after corrupt restore, want 0 (fail open)", n)
			}
			st := b.Stats()
			if st.SnapshotCorrupt != 1 || st.SnapshotRestores != 0 {
				t.Fatalf("counters after corrupt restore: %+v", st)
			}
		})
	}
}

func TestSnapshotForwardCompat(t *testing.T) {
	// A snapshot from a hypothetical newer build — higher version, nonzero
	// reserved field, extra bytes appended inside each record's length frame
	// — must decode cleanly with the known fields intact.
	a, _, _ := populatedVSwitch(t)
	_, recs, err := decodeSnapshot(a.SaveSnapshot())
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	write(&b, snapshotHeader{Magic: snapshotMagic, Version: SnapshotVersion + 1,
		Reserved: 0xBEEF, Captured: 42, Count: uint32(len(recs))})
	for i := range recs {
		lenAt := b.Len()
		writeRecord(&b, &recs[i])
		// A future writer appended four bytes of state we don't know about.
		b.Write([]byte{0xde, 0xad, 0xbe, 0xef})
		binary.BigEndian.PutUint16(b.Bytes()[lenAt:], uint16(b.Len()-lenAt-2))
	}
	write(&b, crc32.ChecksumIEEE(b.Bytes()))
	future := b.Bytes()

	capturedAt, got, err := decodeSnapshot(future)
	if err != nil {
		t.Fatalf("future-format snapshot rejected: %v", err)
	}
	if capturedAt != 42 || len(got) != len(recs) {
		t.Fatalf("capturedAt=%d records=%d", capturedAt, len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d drifted through future format:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}

	// And a restore of it must install the flows (not fail open).
	v, _, _ := loneVSwitch(t, DefaultConfig())
	if err := v.RestoreSnapshot(future); err != nil {
		t.Fatal(err)
	}
	if v.Table.Len() != len(recs) {
		t.Fatalf("restored %d flows from future format, want %d", v.Table.Len(), len(recs))
	}
}

func TestRestoreEntersResyncThenReenforces(t *testing.T) {
	// A restored sender flow must come up in conservative mode — no RWND
	// rewrite — and return to enforcement only after one clean feedback
	// round. This is the tentpole invariant: the snapshot is always at least
	// one outage behind the wire.
	a, ahost, peer := populatedVSwitch(t)
	snap := a.SaveSnapshot()
	b, _, _ := loneVSwitch(t, DefaultConfig())
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	k := FlowKey{Src: ahost, Dst: peer, SPort: 10, DPort: 20}
	f := b.Table.Get(k)
	if f == nil {
		t.Fatal("handshake flow missing after restore")
	}
	if !f.Resyncing() {
		t.Fatal("restored flow not in resync")
	}

	// Plain ACK during resync: enforcement suspended, neither rewrite nor
	// noop counted, guest window untouched.
	p := ackPkt(peer, ahost, 20, 10, 1401, 65535)
	ingress(b, p)
	if w := p.TCP().Window(); w != 65535 {
		t.Fatalf("resyncing flow rewrote RWND to %d", w)
	}
	if st := b.Stats(); st.RwndRewrites != 0 || st.RwndUnchanged != 0 {
		t.Fatalf("enforcement counters moved during resync: %+v", st)
	}

	// First feedback re-anchors (cumulative counters are unanchored across
	// the restore); the next feedback ACK covering snd_nxt completes the
	// round.
	ingress(b, packAck(peer, ahost, 20, 10, 1401, 65535, 1400, 1400))
	if !f.Resyncing() {
		t.Fatal("one feedback packet should not complete resync")
	}
	ingress(b, packAck(peer, ahost, 20, 10, 1401, 65535, 1400, 1400))
	if f.Resyncing() {
		t.Fatalf("resync never completed (state %s)", f.ResyncState())
	}
	if got := b.Stats().FlowsResynced; got != 1 {
		t.Fatalf("FlowsResynced = %d", got)
	}

	// Enforcement is live again (the completing ACK itself re-enters the
	// enforced path): the peer's marked feedback cut the window well under
	// 64KB, so the next wide ACK must be rewritten down.
	before := b.Stats().RwndRewrites
	p = ackPkt(peer, ahost, 20, 10, 1401, 65535)
	ingress(b, p)
	if b.Stats().RwndRewrites != before+1 {
		t.Fatalf("RwndRewrites %d → %d after resync", before, b.Stats().RwndRewrites)
	}
	if w := p.TCP().Window(); w >= 65535 {
		t.Fatalf("post-resync ACK window %d not enforced", w)
	}
}

func TestRestoreRebaselinesFeedbackWithoutAlphaCredit(t *testing.T) {
	// The first feedback after a restore must not smear the peer's whole
	// cumulative history into the marked-byte window: it only re-anchors.
	a, ahost, peer := populatedVSwitch(t)
	snap := a.SaveSnapshot()
	b, _, _ := loneVSwitch(t, DefaultConfig())
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	f := b.Table.Get(FlowKey{Src: ahost, Dst: peer, SPort: 10, DPort: 20})
	// Feedback claiming 4GB-ish cumulative totals (a peer much further along
	// than our restored baseline).
	ingress(b, packAck(peer, ahost, 20, 10, 1401, 65535, 3_000_000_000, 2_999_000_000))
	wt, wm, lt := f.windowTotal, f.windowMarked, f.lastTotal
	if wt != 0 || wm != 0 {
		t.Fatalf("first post-restore feedback credited deltas: total=%d marked=%d", wt, wm)
	}
	if lt != 3_000_000_000 {
		t.Fatalf("lastTotal not re-anchored: %d", lt)
	}
}

func TestRestoreCapacityOverflowFailsOpen(t *testing.T) {
	a, _, _ := populatedVSwitch(t)
	snap := a.SaveSnapshot()
	cfg := DefaultConfig()
	cfg.MaxFlows = 1
	b, _, _ := loneVSwitch(t, cfg)
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatalf("overflowing restore must not error (it fails open): %v", err)
	}
	if n := b.Table.Len(); n != 1 {
		t.Fatalf("table len %d, want MaxFlows=1", n)
	}
	if st := b.Stats(); st.FlowTableFull == 0 {
		t.Fatal("overflow flows not counted as table-full fail-open")
	}
}

func TestSnapshotSkipsUDPTunnelFlows(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	egress(v, dataPkt(host.Addr, peer, 1, 2, 100, 100))
	f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: 1, DPort: 2})
	f.isUDP = true
	_, recs, err := decodeSnapshot(v.SaveSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("UDP tunnel flow serialized: %d records", len(recs))
	}
}

func TestRestartColdWipesWarmRestores(t *testing.T) {
	a, _, _ := populatedVSwitch(t)
	n := a.Table.Len()
	snap := a.SaveSnapshot()

	a.Restart(nil) // cold
	if a.Table.Len() != 0 {
		t.Fatalf("cold restart left %d flows", a.Table.Len())
	}
	st := a.Stats()
	if st.Restarts != 1 || st.FlowsRemoved < int64(n) {
		t.Fatalf("cold restart accounting: %+v", st)
	}

	a.Restart(snap) // warm
	if a.Table.Len() != n {
		t.Fatalf("warm restart restored %d flows, want %d", a.Table.Len(), n)
	}
	if st = a.Stats(); st.Restarts != 2 || st.SnapshotRestores != 1 {
		t.Fatalf("warm restart accounting: %+v", st)
	}
	// The metrics registry models the host observability agent: it survives
	// the vSwitch process, so counters accumulate across restarts.
	if st.FlowsCreated < int64(2*n) {
		t.Fatalf("FlowsCreated = %d, want ≥ %d (restore recreates)", st.FlowsCreated, 2*n)
	}
}

func TestDetachReattachRoundTrip(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	v.Detach()
	if v.Attached() {
		t.Fatal("Detach left the datapath attached")
	}
	// Detached module: traffic passes untouched (fail open during downtime).
	p := dataPkt(host.Addr, packet.MakeAddr(10, 0, 0, 2), 1, 2, 100, 100)
	host.Output(p)
	if v.Table.Len() != 0 {
		t.Fatal("detached vSwitch still tracking flows")
	}
	v.Reattach()
	if !v.Attached() {
		t.Fatal("Reattach did not re-enable the datapath")
	}
	egress(v, dataPkt(host.Addr, packet.MakeAddr(10, 0, 0, 2), 1, 2, 200, 100))
	if v.Table.Len() != 1 {
		t.Fatal("reattached vSwitch not tracking")
	}
}

func TestSanitizeClampsHostileRecords(t *testing.T) {
	// A forged record that passes CRC must still be neutralized field by
	// field before it can reach the enforcement math.
	cfg := DefaultConfig()
	nan := 0.0
	nan /= nan // NaN without importing math
	r := flowRecord{Fixed: recordFixed{
		Key:           FlowKey{Src: 1, Dst: 2, SPort: 3, DPort: 4},
		MSS:           7,
		CwndBytes:     nan,
		SsthreshBytes: -1,
		Alpha:         42,
		Beta:          -3,
		RwndClamp:     -9,
		SndUna:        100, // > SndNxt
		SndNxt:        50,
		VTimeouts:     -1,
		LossEvents:    -2,
		PrevCwnd:      nan,
	}, PolVCC: "bbr2"}
	x := &r.Fixed
	x.sanitize(&cfg)
	pol := r.policy()
	if x.MSS != uint32(cfg.MTU-40) {
		t.Fatalf("MSS = %d", x.MSS)
	}
	if !finitePositive(x.CwndBytes) || !finitePositive(x.SsthreshBytes) {
		t.Fatalf("cwnd=%v ssthresh=%v", x.CwndBytes, x.SsthreshBytes)
	}
	if x.Alpha < 0 || x.Alpha > 1 || pol.Beta < 0 || pol.Beta > 1 {
		t.Fatalf("alpha=%v beta=%v", x.Alpha, pol.Beta)
	}
	if pol.RwndClampBytes != 0 || pol.VCC != "" || x.SndUna > x.SndNxt || x.VTimeouts != 0 || x.LossEvents != 0 || x.PrevCwnd != 0 {
		t.Fatalf("sanitize left hostile fields: %+v, policy %+v", r, pol)
	}
}

func TestRestoreUnknownVCCNameDegradesToDefault(t *testing.T) {
	// A snapshot naming a vCC this build doesn't have (newer fleet) must
	// restore onto the default law, not panic.
	a, ahost, peer := populatedVSwitch(t)
	_, recs, err := decodeSnapshot(a.SaveSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].PolVCC = "bbr2"
		recs[i].VCCName = "bbr2"
	}
	b, _, _ := loneVSwitch(t, DefaultConfig())
	if err := b.RestoreSnapshot(encodeSnapshot(0, recs)); err != nil {
		t.Fatal(err)
	}
	f := b.Table.Get(FlowKey{Src: ahost, Dst: peer, SPort: 10, DPort: 20})
	if f == nil || f.vcc.String() != "dctcp" {
		t.Fatalf("unknown vCC did not degrade to default")
	}
}

// TestRestoreRetiredBackendSnapshot restores bytes written by a build that
// still had the "pace" and "adaptive-k" enforcement backends: a pace flow
// with a nonzero pacing rate (reno, β 0.25, a 200 KB clamp), an adaptive-k
// flow (dctcp, β 0.5) and a default flow, each with its reverse direction.
// The records' backend tail is read and ignored: the restore succeeds without
// a corruption count, every policy comes back intact, and once resync
// completes each flow is enforced by the RWND rewrite.
func TestRestoreRetiredBackendSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot_backend_flows.bin")
	if err != nil {
		t.Fatal(err)
	}
	v, host, _ := loneVSwitch(t, DefaultConfig())
	if err := v.RestoreSnapshot(data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if st := v.Stats(); st.SnapshotCorrupt != 0 || st.SnapshotRestores != 1 || v.Table.Len() != 6 {
		t.Fatalf("restore: corrupt=%d restores=%d flows=%d, want 0/1/6",
			st.SnapshotCorrupt, st.SnapshotRestores, v.Table.Len())
	}
	peer := packet.MakeAddr(10, 0, 0, 2)
	for _, tc := range []struct {
		sport uint16
		want  Policy
		law   string
	}{
		{10, Policy{Beta: 0.25, RwndClampBytes: 200_000, VCC: "reno"}, "reno"},
		{30, Policy{Beta: 0.5, VCC: "dctcp"}, "dctcp"},
		{50, DefaultPolicy(), "dctcp"},
	} {
		dport := tc.sport + 10
		f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: tc.sport, DPort: dport})
		if f == nil {
			t.Fatalf("flow %d→%d missing after restore", tc.sport, dport)
		}
		if *f.Policy != tc.want || f.vcc.String() != tc.law {
			t.Fatalf("flow %d: policy %+v law %s, want %+v law %s", tc.sport, *f.Policy, f.vcc.String(), tc.want, tc.law)
		}
		// Two feedback ACKs covering snd_nxt: the first re-anchors, the
		// second completes the resync round.
		ingress(v, packAck(peer, host.Addr, dport, tc.sport, 2801, 65535, 2800, 0))
		ingress(v, packAck(peer, host.Addr, dport, tc.sport, 2801, 65535, 2800, 0))
		if f.Resyncing() {
			t.Fatalf("flow %d: resync never completed (state %s)", tc.sport, f.ResyncState())
		}
		before := v.Stats().RwndRewrites
		p := ackPkt(peer, host.Addr, dport, tc.sport, 2801, 65535)
		ingress(v, p)
		if v.Stats().RwndRewrites != before+1 || p.TCP().Window() >= 65535 {
			t.Fatalf("flow %d: ACK window %d, rewrites %d → %d: not enforced by RWND rewrite",
				tc.sport, p.TCP().Window(), before, v.Stats().RwndRewrites)
		}
	}
}

// backendSnapshot reads the checked-in six-flow snapshot that
// TestRestoreRetiredBackendSnapshot restores: reno and dctcp laws, β, a
// window clamp, handshake and FIN flag shapes, and nonzero retired backend
// tails.
func backendSnapshot(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/snapshot_backend_flows.bin")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotBytesPinParentCommit restores the checked-in snapshot and saves
// it again. The sha256 of the re-saved bytes is the version 2 format's: the
// bytes the commit before the record layout became a struct that
// encoding/binary writes gave, with the version field 2 and each record's
// empty backend tail dropped. A field written at another offset, width or
// byte order changes it.
func TestSnapshotBytesPinParentCommit(t *testing.T) {
	v, _, _ := loneVSwitch(t, DefaultConfig())
	if err := v.RestoreSnapshot(backendSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	const want = "34b911e6a3d6650b4d7cc932c9503b8e7ded53f31d381240702d811d76bf7e99"
	if got := fmt.Sprintf("%x", sha256.Sum256(v.SaveSnapshot())); got != want {
		t.Fatalf("re-saved snapshot sha256 %s, parent commit gave %s", got, want)
	}
}

// TestSnapshotDecodePinsParentCommit restores 20 000 seeded mutations of the
// checked-in snapshot — truncations, bit flips, byte overwrites, and records
// whose tail is cut, extended or overwritten behind a fixed-up length prefix —
// with the CRC re-fixed on every other input so body damage reaches the record
// parser. Each input's verdict, restored table size and re-saved records feed
// one sha256. The verdicts and restored records are those of the commit before
// the hand-written codec was replaced by encoding/binary; the re-saved records
// are in the version 2 format, without the backend tail. A decoder that
// accepts, rejects or reads any input differently changes it.
func TestSnapshotDecodePinsParentCommit(t *testing.T) {
	base := backendSnapshot(t)
	// Each record's frame: the offset of its length prefix and its length.
	var frames [][2]int
	for off := snapshotHeaderLen; off < len(base)-4; {
		n := int(binary.BigEndian.Uint16(base[off:]))
		frames = append(frames, [2]int{off, n})
		off += 2 + n
	}
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	accepted := 0
	for i := 0; i < 20_000; i++ {
		in := append([]byte(nil), base...)
		fr := frames[rng.Intn(len(frames))]
		end := fr[0] + 2 + fr[1] // one past the record's last byte
		resize := func(delta int) {
			if delta < 0 {
				in = append(in[:end+delta], in[end:]...)
			} else {
				extra := make([]byte, delta)
				rng.Read(extra)
				in = append(in[:end], append(extra, in[end:]...)...)
			}
			binary.BigEndian.PutUint16(in[fr[0]:], uint16(fr[1]+delta))
		}
		switch rng.Intn(6) {
		case 0: // truncation
			in = in[:rng.Intn(len(in))]
		case 1: // one bit flipped
			in[rng.Intn(len(in))] ^= 1 << rng.Intn(8)
		case 2: // one to four bytes overwritten
			for n := 1 + rng.Intn(4); n > 0; n-- {
				in[rng.Intn(len(in))] = byte(rng.Intn(256))
			}
		case 3: // a record's tail cut short: into the backend scalar, its name, VCCName
			resize(-1 - rng.Intn(16))
		case 4: // bytes a newer writer might append
			resize(1 + rng.Intn(8))
		case 5: // a byte in a record's last 16 overwritten
			in[end-1-rng.Intn(16)] = byte(rng.Intn(256))
		}
		if i%2 == 0 && len(in) >= 4 {
			binary.BigEndian.PutUint32(in[len(in)-4:], crc32.ChecksumIEEE(in[:len(in)-4]))
		}
		v := fuzzVSwitch()
		var verdict [5]byte
		if v.RestoreSnapshot(in) == nil {
			verdict[0] = 1
			accepted++
		}
		binary.BigEndian.PutUint32(verdict[1:], uint32(v.Table.Len()))
		h.Write(verdict[:])
		h.Write(v.SaveSnapshot()[snapshotHeaderLen:])
	}
	const wantAccepted, want = 7159, "50c9237bcc8aeaa54fb4c8c722b58083c3382700255c12290b3cbdc262ac6fa5"
	if got := fmt.Sprintf("%x", h.Sum(nil)); accepted != wantAccepted || got != want {
		t.Fatalf("%d inputs accepted, verdict sha256 %s; parent commit gave %d, %s",
			accepted, got, wantAccepted, want)
	}
}
