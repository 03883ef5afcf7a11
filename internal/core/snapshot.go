package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"acdc/internal/sim"
)

// Flow-state checkpoint/restore (warm restart).
//
// The vSwitch is exactly the component that gets restarted in production —
// OVS upgrades, host-agent redeploys, crashes — and all of AC/DC's
// enforcement lives in its per-flow state (§3.2–3.3: seq tracking, the
// window scale learned from the SYN, vCWND, DCTCP α). This file gives that
// state a versioned, checksummed wire format so a restarting vSwitch can
// carry its flow table across the outage instead of silently re-enforcing
// with wrong assumptions.
//
// Format (big-endian, encoding/binary's padding-free layout of the structs):
//
//	header   snapshotHeader
//	records  count × (length uint16, recordFixed, PolVCC, VCCName)
//	crc      uint32   IEEE CRC-32 over everything above
//
// PolVCC and VCCName are a length byte and at most 255 bytes. A version 1
// record may go on with a retired enforcement backend's tail, its name and
// float64 scalar, which decodeRecord reads and ignores.
//
// Records are length-prefixed so decoding is forward compatible: a reader
// parses the fields it knows and skips any trailing bytes a newer writer
// appended. Truncated input, a bad magic, or a CRC mismatch is corruption:
// RestoreSnapshot then fails open — fresh empty table, traffic untouched,
// snapshot_corrupt_total incremented — because a wrong flow table is worse
// than no flow table. Decoded numeric fields are clamped to sane ranges so
// even a snapshot that collides with the CRC (or a fuzzer's forgery) cannot
// install NaN windows or inverted sequence state.
//
// UDP tunnel flows are deliberately not captured: their state includes a
// queue of in-flight guest datagrams that does not survive a process
// boundary, and the tunnel rebuilds itself from live traffic in one
// feedback interval.
//
// Every restored data-direction flow re-enters enforcement through the
// conservative resync machine (resync.go) — even a fresh ("warm") snapshot
// is one outage behind the wire.

// snapshotMagic identifies a flow-table snapshot.
var snapshotMagic = [8]byte{'A', 'C', 'D', 'C', 'S', 'N', 'A', 'P'}

// SnapshotVersion is the format version this build writes. Readers accept
// any version ≥ 1 (the record framing is the compatibility contract).
const SnapshotVersion = 2

// snapshotHeader opens a snapshot.
type snapshotHeader struct {
	Magic    [8]byte
	Version  uint16
	Reserved uint16 // opaque to readers; writers set 0
	Captured int64  // sim.Time of capture (staleness diagnostics)
	Count    uint32 // number of flow records
}

// recordFixed is the fixed-layout prefix of a record, field by field in wire
// order and width. A field added here goes at the end, with a SnapshotVersion
// bump: older readers find the strings right behind this prefix.
type recordFixed struct {
	Key        FlowKey // src, dst uint32; sport, dport uint16
	Flags      uint8   // rec* bits
	PeerWScale uint8
	MSS        uint32
	ISS        uint32

	SndUna, SndNxt                  int64
	CwndBytes, SsthreshBytes, Alpha float64

	LastTotal, LastMarked, WindowTotal, WindowMarked uint32
	AlphaSeq, CutSeq                                 int64
	PrevCwnd                                         float64

	TotalBytes, MarkedBytes uint32
	VTimeouts, LossEvents   int64

	Beta      float64
	RwndClamp int64
	PolFlags  uint8 // polDisable
}

// The handshake and FIN bits of recordFixed.Flags, and PolFlags' one bit.
const (
	recWScaleKnown uint8 = 1 << iota
	recGuestECN
	recSynSeen
	recSynAckSeen
	recISSValid
	recFinFwd
	recFinRev

	polDisable uint8 = 1 // Policy.Disable
)

// flowRecord is one flow's serialized state: every field that affects
// enforcement (pinned by TestSnapshotRoundTripLossless) plus the lifecycle
// bits needed to garbage-collect the restored entry correctly.
type flowRecord struct {
	Fixed           recordFixed
	PolVCC, VCCName string
}

var (
	snapshotHeaderLen = binary.Size(snapshotHeader{})
	// recordFixedLen is the shortest well-formed record: the fixed prefix
	// and the two string length bytes.
	recordFixedLen = binary.Size(recordFixed{}) + 2
)

// flag returns mask if b is set, else 0.
func flag(b bool, mask uint8) uint8 {
	if b {
		return mask
	}
	return 0
}

// record copies a flow into its serialized form.
func (f *Flow) record() flowRecord {
	return flowRecord{
		Fixed: recordFixed{
			Key: f.Key,
			Flags: flag(f.WScaleKnown, recWScaleKnown) | flag(f.GuestECN, recGuestECN) |
				flag(f.synSeen, recSynSeen) | flag(f.synAckSeen, recSynAckSeen) |
				flag(f.issValid, recISSValid) | flag(f.finFwd, recFinFwd) | flag(f.finRev, recFinRev),
			PeerWScale: f.PeerWScale,
			MSS:        uint32(f.MSS),
			ISS:        f.iss,

			SndUna:        f.SndUna,
			SndNxt:        f.SndNxt,
			CwndBytes:     f.CwndBytes,
			SsthreshBytes: f.SsthreshBytes,
			Alpha:         f.Alpha,

			LastTotal:    f.lastTotal,
			LastMarked:   f.lastMarked,
			WindowTotal:  f.windowTotal,
			WindowMarked: f.windowMarked,
			AlphaSeq:     f.alphaSeq,
			CutSeq:       f.cutSeq,
			PrevCwnd:     f.prevCwndBytes,

			TotalBytes:  f.TotalBytes,
			MarkedBytes: f.MarkedBytes,
			VTimeouts:   f.VTimeouts(),
			LossEvents:  f.LossEvents(),

			Beta:      f.Policy.Beta,
			RwndClamp: f.Policy.RwndClampBytes,
			PolFlags:  flag(f.Policy.Disable, polDisable),
		},
		PolVCC:  f.Policy.VCC,
		VCCName: f.vcc.String(),
	}
}

// policy is the record's per-flow policy, through the same sanitizer as the
// live FlowPolicy path (VSwitch.policy), so a restored flow and a fresh one
// obey one contract: β ∈ [0,1], non-negative clamp, known vCC name.
func (r *flowRecord) policy() Policy {
	return Policy{Beta: r.Fixed.Beta, RwndClampBytes: r.Fixed.RwndClamp,
		VCC: r.PolVCC, Disable: r.Fixed.PolFlags&polDisable != 0}.sanitize()
}

// --- encoding ---

// write appends v, a fixed-size value, big-endian. Neither a bytes.Buffer nor
// a fixed-size value can fail binary.Write.
func write(b *bytes.Buffer, v any) {
	if err := binary.Write(b, binary.BigEndian, v); err != nil {
		panic(err)
	}
}

// writeStr appends s, cut to 255 bytes, behind its length byte.
func writeStr(b *bytes.Buffer, s string) {
	if len(s) > 255 {
		s = s[:255]
	}
	b.WriteByte(byte(len(s)))
	b.WriteString(s)
}

// writeRecord appends one length-framed record.
func writeRecord(b *bytes.Buffer, r *flowRecord) {
	lenAt := b.Len()
	b.Write([]byte{0, 0}) // the frame length, backfilled below
	write(b, &r.Fixed)
	writeStr(b, r.PolVCC)
	writeStr(b, r.VCCName)
	binary.BigEndian.PutUint16(b.Bytes()[lenAt:], uint16(b.Len()-lenAt-2))
}

// encodeSnapshot renders records into the wire format. Records are encoded
// in the order given; SaveSnapshot sorts them so identical tables produce
// identical bytes.
func encodeSnapshot(capturedAt sim.Time, recs []flowRecord) []byte {
	var b bytes.Buffer
	write(&b, snapshotHeader{Magic: snapshotMagic, Version: SnapshotVersion,
		Captured: int64(capturedAt), Count: uint32(len(recs))})
	for i := range recs {
		writeRecord(&b, &recs[i])
	}
	write(&b, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// --- decoding ---

// readStr reads a length byte and that many bytes; ok is false if they
// overrun rd.
func readStr(rd *bytes.Reader) (s string, ok bool) {
	n, err := rd.ReadByte()
	if err != nil || int(n) > rd.Len() {
		return "", false
	}
	b := make([]byte, n)
	_, _ = rd.Read(b) // cannot fail: n ≤ rd.Len()
	return string(b), true
}

// decodeRecord parses one record's frame, written at the given format
// version; ok is false if the frame is too short for the fields it must hold.
func decodeRecord(frame []byte, version uint16) (r flowRecord, ok bool) {
	rd := bytes.NewReader(frame)
	if binary.Read(rd, binary.BigEndian, &r.Fixed) != nil {
		return r, false
	}
	if r.PolVCC, ok = readStr(rd); !ok {
		return r, false
	}
	if r.VCCName, ok = readStr(rd); !ok {
		return r, false
	}
	// A version 1 writer went on with an enforcement-backend tail (a backend
	// name and its per-flow scalar); it is optional, so records that end at
	// VCCName still decode. Its values name mechanisms this build no longer
	// has: ignored — every restored flow is enforced by the RWND rewrite.
	// Only a name overrunning the frame is corruption; a cut-short scalar is
	// tolerated. Bytes past the known fields belong to a newer writer and are
	// ignored by design.
	if version == 1 && rd.Len() > 0 {
		_, ok = readStr(rd)
	}
	return r, ok
}

// decodeSnapshot validates framing and checksum and returns the records.
// It never panics on arbitrary input (pinned by FuzzSnapshotDecode).
func decodeSnapshot(data []byte) (capturedAt sim.Time, recs []flowRecord, err error) {
	var h snapshotHeader
	if len(data) < snapshotHeaderLen+4 || binary.Read(bytes.NewReader(data), binary.BigEndian, &h) != nil {
		return 0, nil, fmt.Errorf("snapshot: %d bytes is shorter than header+crc", len(data))
	}
	body := data[:len(data)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(data[len(body):]); got != want {
		return 0, nil, fmt.Errorf("snapshot: CRC mismatch (got %08x want %08x)", got, want)
	}
	if h.Magic != snapshotMagic {
		return 0, nil, fmt.Errorf("snapshot: bad magic %q", h.Magic[:])
	}
	if h.Version < 1 {
		return 0, nil, fmt.Errorf("snapshot: bad version %d", h.Version)
	}
	rest := body[snapshotHeaderLen:]
	// Each record costs at least its length prefix + fixed fields; refuse
	// counts the remaining bytes cannot possibly hold (bounds allocation).
	if int64(h.Count)*int64(2+recordFixedLen) > int64(len(rest)) {
		return 0, nil, fmt.Errorf("snapshot: count %d exceeds payload", h.Count)
	}
	recs = make([]flowRecord, 0, h.Count)
	for i := uint32(0); i < h.Count; i++ {
		if len(rest) < 2 || 2+int(binary.BigEndian.Uint16(rest)) > len(rest) {
			return 0, nil, fmt.Errorf("snapshot: record %d truncated (%d bytes left)", i, len(rest))
		}
		end := 2 + int(binary.BigEndian.Uint16(rest))
		r, ok := decodeRecord(rest[2:end], h.Version)
		if !ok {
			return 0, nil, fmt.Errorf("snapshot: record %d too short (%d bytes)", i, end-2)
		}
		recs = append(recs, r)
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("snapshot: %d trailing bytes after %d records", len(rest), h.Count)
	}
	return sim.Time(h.Captured), recs, nil
}

// sanitize clamps decoded numerics to ranges the enforcement math tolerates.
// The CRC catches wire corruption; this catches forgeries and future-writer
// drift, so a restored flow can never carry NaN windows, inverted sequence
// state, or an out-of-range α into the datapath.
func (x *recordFixed) sanitize(cfg *Config) {
	if x.MSS < 64 || x.MSS > 65535 {
		x.MSS = uint32(cfg.MTU - 40)
	}
	if !finitePositive(x.CwndBytes) {
		x.CwndBytes = initCwndPkts * float64(x.MSS)
	}
	if !finitePositive(x.SsthreshBytes) {
		x.SsthreshBytes = 1 << 40
	}
	if !(x.PrevCwnd >= 0) || math.IsInf(x.PrevCwnd, 0) {
		x.PrevCwnd = 0
	}
	if !(x.Alpha >= 0) { // NaN fails this too
		x.Alpha = initAlpha
	}
	x.Alpha = min(x.Alpha, 1)
	x.SndUna = min(x.SndUna, x.SndNxt)
	x.VTimeouts = max(x.VTimeouts, 0)
	x.LossEvents = max(x.LossEvents, 0)
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// restoreSender writes the record's sender state into b.
func (x *recordFixed) restoreSender(b *senderBlock) {
	b.WScaleKnown = x.Flags&recWScaleKnown != 0
	b.issValid = x.Flags&recISSValid != 0
	b.PeerWScale = x.PeerWScale
	b.MSS = int32(x.MSS)
	b.SndUna, b.SndNxt = x.SndUna, x.SndNxt
	b.CwndBytes, b.SsthreshBytes, b.Alpha = x.CwndBytes, x.SsthreshBytes, x.Alpha
	b.lastTotal, b.lastMarked = x.LastTotal, x.LastMarked
	b.windowTotal, b.windowMarked = x.WindowTotal, x.WindowMarked
	b.alphaSeq, b.cutSeq, b.prevCwndBytes = x.AlphaSeq, x.CutSeq, x.PrevCwnd
	b.maxInflight = b.SndNxt - b.SndUna
	if b.issValid {
		// Even a fresh snapshot is one outage behind the wire: re-enter
		// enforcement through the conservative resync round.
		b.enterResyncLocked()
	}
}

// same reports whether b holds d's state bit for bit (== takes −0 for +0).
func (b *senderBlock) same(d *senderBlock) bool {
	sign := math.Signbit
	return *b == *d && sign(b.CwndBytes) == sign(d.CwndBytes) && sign(b.SsthreshBytes) == sign(d.SsthreshBytes) &&
		sign(b.Alpha) == sign(d.Alpha) && sign(b.prevCwndBytes) == sign(d.prevCwndBytes)
}

// --- vSwitch API ---

// SaveSnapshot serializes the current flow table (checkpoint). The encoding
// is deterministic: records are sorted by flow key, so identical tables
// yield identical bytes. UDP tunnel flows are skipped (soft state; see the
// file comment).
func (v *VSwitch) SaveSnapshot() []byte {
	var recs []flowRecord
	v.Table.Range(func(f *Flow) {
		if !f.isUDP {
			recs = append(recs, f.record())
		}
	})
	slices.SortFunc(recs, func(a, b flowRecord) int {
		ka, kb := a.Fixed.Key, b.Fixed.Key
		return cmp.Or(cmp.Compare(ka.Src, kb.Src), cmp.Compare(ka.Dst, kb.Dst),
			cmp.Compare(ka.SPort, kb.SPort), cmp.Compare(ka.DPort, kb.DPort))
	})
	v.Metrics.SnapshotSaves.Inc()
	return encodeSnapshot(v.Sim.Now(), recs)
}

// RestoreSnapshot decodes data and installs the flows into the table.
// Corrupt input fails open: the table is reset to empty, traffic continues
// untouched, snapshot_corrupt_total is incremented, and the error is
// returned for logging. Every restored data-direction flow enters the
// conservative resync mode (resync.go) before enforcement resumes, and the
// policy fields route through the Sanitized choke point (flowRecord.policy).
func (v *VSwitch) RestoreSnapshot(data []byte) error {
	_, recs, err := decodeSnapshot(data)
	if err != nil {
		v.resetTable()
		v.Metrics.SnapshotCorrupt.Inc()
		return err
	}
	now := v.Sim.Now()
	for i := range recs {
		r := &recs[i]
		x := &r.Fixed
		x.sanitize(&v.Cfg)
		// A record whose sender state is not the defaults gets a block.
		d := *v.defaults
		x.restoreSender(&d)
		f := v.flowForRestore(x.Key, !d.same(v.defaults) || x.VTimeouts != 0 || x.LossEvents != 0)
		if f == nil {
			// Table at capacity (MaxFlows smaller than the snapshot): the
			// overflow flows fail open exactly like new flows at capacity.
			continue
		}
		f.GuestECN = x.Flags&recGuestECN != 0
		f.synSeen = x.Flags&recSynSeen != 0
		f.synAckSeen = x.Flags&recSynAckSeen != 0
		f.finFwd = x.Flags&recFinFwd != 0
		f.finRev = x.Flags&recFinRev != 0
		f.iss = x.ISS
		f.TotalBytes = x.TotalBytes
		f.MarkedBytes = x.MarkedBytes
		b := *f.senderBlock
		x.restoreSender(&b)
		if keepCold := x.VTimeouts != 0 || x.LossEvents != 0 || f.cold != nil; keepCold || !b.same(f.senderBlock) {
			v.ownSender(f)
			*f.senderBlock = b
			if keepCold {
				c := f.writeCold()
				c.vTimeouts, c.lossEvents = x.VTimeouts, x.LossEvents
			}
		}
		f.Policy = v.intern(r.policy())
		v.setLaw(f) // swap the growth law like applyToLive does
		f.lastActive = now
	}
	v.Metrics.SnapshotRestores.Inc()
	return nil
}

// resetTable empties the flow table in place, keeping the table-size gauge
// and churn counters consistent (restart is removal, as far as accounting
// goes). It does not walk the records to stop their inactivity timers:
// orphaned timers cancel themselves when they fire, because onVTimeout checks
// table membership and ignores flows that are no longer the tracked entry for
// their key.
func (v *VSwitch) resetTable() {
	dropped := int64(v.Table.Clear())
	if dropped > 0 {
		v.Metrics.FlowsRemoved.Add(dropped)
		v.Metrics.FlowTableSize.Add(-dropped)
	}
}

// Restart models the vSwitch process dying and coming back: all flow state
// is discarded, then — when snapshot is non-nil — restored from the
// checkpoint. A nil snapshot is a cold restart: the table starts empty and
// live flows are re-adopted mid-stream by the datapath (resync.go). The
// metrics registry survives (it models the host's observability agent, not
// the vSwitch process), so operators see restart counters, not a reset. The
// sweep timer stops with the table and is armed again by the first restored
// flow (newFlow).
func (v *VSwitch) Restart(snapshot []byte) {
	v.resetTable()
	v.trimParked(false) // the process died: its free list goes with the table
	if v.sweepTimer != nil {
		v.sweepTimer.Stop()
	}
	v.Metrics.Restarts.Inc()
	if snapshot != nil {
		_ = v.RestoreSnapshot(snapshot) // corrupt input already failed open
	}
}

// Reattach re-enables the datapath hooks after a Detach (the restart
// scheduler detaches during the outage window so in-flight traffic passes
// through a hook-less host, exactly like a dead OVS with fail-open flows).
func (v *VSwitch) Reattach() { v.attached = true }

// FlowCount reports the current flow-table size (part of the restart-target
// surface: recurring restart plans stop re-arming on a drained table).
func (v *VSwitch) FlowCount() int { return v.Table.Len() }
