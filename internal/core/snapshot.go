package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"acdc/internal/packet"
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
// Format (big-endian):
//
//	magic    [8]byte  "ACDCSNAP"
//	version  uint16   (currently 1)
//	reserved uint16   (must decode as opaque; writers set 0)
//	captured int64    sim.Time of capture (staleness diagnostics)
//	count    uint32   number of flow records
//	records  count ×  (length uint16, fields…)
//	crc      uint32   IEEE CRC-32 over everything above
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
const SnapshotVersion = 1

const snapshotHeaderLen = 8 + 2 + 2 + 8 + 4 // magic, version, reserved, captured, count

// flowRecord is one flow's serialized state: every field that affects
// enforcement (pinned by TestSnapshotRoundTripLossless) plus the lifecycle
// bits needed to garbage-collect the restored entry correctly.
type flowRecord struct {
	Key FlowKey

	PeerWScale  uint8
	WScaleKnown bool
	GuestECN    bool
	synSeen     bool
	synAckSeen  bool
	issValid    bool
	finFwd      bool
	finRev      bool

	MSS           int
	iss           uint32
	SndUna        int64
	SndNxt        int64
	CwndBytes     float64
	SsthreshBytes float64
	Alpha         float64

	lastTotal    uint32
	lastMarked   uint32
	windowTotal  uint32
	windowMarked uint32
	alphaSeq     int64
	cutSeq       int64
	prevCwnd     float64

	TotalBytes  uint32
	MarkedBytes uint32

	VTimeouts  int64
	LossEvents int64

	Beta       float64
	RwndClamp  int64
	PolDisable bool
	PolVCC     string
	VCCName    string
}

// recordFixedLen is the length of the fixed-layout prefix of a record; the
// two trailing strings are variable. A record shorter than this is corrupt.
const recordFixedLen = 12 + // key
	1 + 1 + // flags, wscale
	4 + 4 + // mss, iss
	8 + 8 + // snd_una, snd_nxt
	8 + 8 + 8 + // cwnd, ssthresh, alpha
	4 + 4 + 4 + 4 + // lastTotal, lastMarked, windowTotal, windowMarked
	8 + 8 + 8 + // alphaSeq, cutSeq, prevCwnd
	4 + 4 + // totalBytes, markedBytes
	8 + 8 + // vtimeouts, lossEvents
	8 + 8 + 1 + // beta, rwndClamp, policy flags
	1 + 1 // two string length bytes

// record copies a flow into its serialized form.
func (f *Flow) record() flowRecord {
	return flowRecord{
		Key:         f.Key,
		PeerWScale:  f.PeerWScale,
		WScaleKnown: f.WScaleKnown,
		GuestECN:    f.GuestECN,
		synSeen:     f.synSeen,
		synAckSeen:  f.synAckSeen,
		issValid:    f.issValid,
		finFwd:      f.finFwd,
		finRev:      f.finRev,

		MSS:           int(f.MSS),
		iss:           f.iss,
		SndUna:        f.SndUna,
		SndNxt:        f.SndNxt,
		CwndBytes:     f.CwndBytes,
		SsthreshBytes: f.SsthreshBytes,
		Alpha:         f.Alpha,

		lastTotal:    f.lastTotal,
		lastMarked:   f.lastMarked,
		windowTotal:  f.windowTotal,
		windowMarked: f.windowMarked,
		alphaSeq:     f.alphaSeq,
		cutSeq:       f.cutSeq,
		prevCwnd:     f.prevCwndBytes,

		TotalBytes:  f.TotalBytes,
		MarkedBytes: f.MarkedBytes,

		VTimeouts:  f.VTimeouts(),
		LossEvents: f.LossEvents(),

		Beta:       f.Policy.Beta,
		RwndClamp:  f.Policy.RwndClampBytes,
		PolDisable: f.Policy.Disable,
		PolVCC:     f.Policy.VCC,
		VCCName:    f.vcc.String(),
	}
}

// --- encoding ---

type snapEncoder struct{ buf []byte }

func (e *snapEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *snapEncoder) u16(v uint16) { e.buf = append(e.buf, byte(v>>8), byte(v)) }
func (e *snapEncoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (e *snapEncoder) u64(v uint64) {
	e.u32(uint32(v >> 32))
	e.u32(uint32(v))
}
func (e *snapEncoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *snapEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *snapEncoder) str(s string) {
	if len(s) > 255 {
		s = s[:255]
	}
	e.u8(uint8(len(s)))
	e.buf = append(e.buf, s...)
}

// boolBit packs b into bit i of a flags byte.
func boolBit(b bool, i uint) uint8 {
	if b {
		return 1 << i
	}
	return 0
}

func (e *snapEncoder) record(r flowRecord) {
	// Reserve the length prefix, encode, then backfill.
	lenAt := len(e.buf)
	e.u16(0)
	start := len(e.buf)

	e.u32(uint32(r.Key.Src))
	e.u32(uint32(r.Key.Dst))
	e.u16(r.Key.SPort)
	e.u16(r.Key.DPort)
	e.u8(boolBit(r.WScaleKnown, 0) | boolBit(r.GuestECN, 1) |
		boolBit(r.synSeen, 2) | boolBit(r.synAckSeen, 3) |
		boolBit(r.issValid, 4) | boolBit(r.finFwd, 5) | boolBit(r.finRev, 6))
	e.u8(r.PeerWScale)
	e.u32(uint32(r.MSS))
	e.u32(r.iss)
	e.i64(r.SndUna)
	e.i64(r.SndNxt)
	e.f64(r.CwndBytes)
	e.f64(r.SsthreshBytes)
	e.f64(r.Alpha)
	e.u32(r.lastTotal)
	e.u32(r.lastMarked)
	e.u32(r.windowTotal)
	e.u32(r.windowMarked)
	e.i64(r.alphaSeq)
	e.i64(r.cutSeq)
	e.f64(r.prevCwnd)
	e.u32(r.TotalBytes)
	e.u32(r.MarkedBytes)
	e.i64(r.VTimeouts)
	e.i64(r.LossEvents)
	e.f64(r.Beta)
	e.i64(r.RwndClamp)
	e.u8(boolBit(r.PolDisable, 0))
	e.str(r.PolVCC)
	e.str(r.VCCName)
	// The retired enforcement-backend tail: an empty backend name and a zero
	// per-flow scalar, so the record layout (and every snapshot's bytes)
	// stays what readers of the format expect.
	e.str("")
	e.f64(0)

	n := len(e.buf) - start
	e.buf[lenAt] = byte(n >> 8)
	e.buf[lenAt+1] = byte(n)
}

// encodeSnapshot renders records into the wire format. Records are encoded
// in the order given; SaveSnapshot sorts them so identical tables produce
// identical bytes.
func encodeSnapshot(capturedAt sim.Time, recs []flowRecord) []byte {
	e := &snapEncoder{buf: make([]byte, 0, snapshotHeaderLen+len(recs)*(recordFixedLen+16)+4)}
	e.buf = append(e.buf, snapshotMagic[:]...)
	e.u16(SnapshotVersion)
	e.u16(0) // reserved
	e.i64(int64(capturedAt))
	e.u32(uint32(len(recs)))
	for _, r := range recs {
		e.record(r)
	}
	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// --- decoding ---

type snapDecoder struct {
	buf []byte
	off int
	err error
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (d *snapDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated at offset %d (want %d bytes of %d)", d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapDecoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *snapDecoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}
func (d *snapDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func (d *snapDecoder) u64() uint64 { return uint64(d.u32())<<32 | uint64(d.u32()) }
func (d *snapDecoder) i64() int64  { return int64(d.u64()) }
func (d *snapDecoder) f64() float64 {
	return math.Float64frombits(d.u64())
}
func (d *snapDecoder) str() string {
	n := int(d.u8())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// decodeRecord parses one length-framed record. Trailing bytes beyond the
// known fields are skipped (forward compatibility).
func (d *snapDecoder) record() flowRecord {
	n := int(d.u16())
	body := d.take(n)
	if d.err != nil {
		return flowRecord{}
	}
	rd := &snapDecoder{buf: body}
	var r flowRecord
	r.Key.Src = packet.Addr(rd.u32())
	r.Key.Dst = packet.Addr(rd.u32())
	r.Key.SPort = rd.u16()
	r.Key.DPort = rd.u16()
	flags := rd.u8()
	r.WScaleKnown = flags&(1<<0) != 0
	r.GuestECN = flags&(1<<1) != 0
	r.synSeen = flags&(1<<2) != 0
	r.synAckSeen = flags&(1<<3) != 0
	r.issValid = flags&(1<<4) != 0
	r.finFwd = flags&(1<<5) != 0
	r.finRev = flags&(1<<6) != 0
	r.PeerWScale = rd.u8()
	r.MSS = int(rd.u32())
	r.iss = rd.u32()
	r.SndUna = rd.i64()
	r.SndNxt = rd.i64()
	r.CwndBytes = rd.f64()
	r.SsthreshBytes = rd.f64()
	r.Alpha = rd.f64()
	r.lastTotal = rd.u32()
	r.lastMarked = rd.u32()
	r.windowTotal = rd.u32()
	r.windowMarked = rd.u32()
	r.alphaSeq = rd.i64()
	r.cutSeq = rd.i64()
	r.prevCwnd = rd.f64()
	r.TotalBytes = rd.u32()
	r.MarkedBytes = rd.u32()
	r.VTimeouts = rd.i64()
	r.LossEvents = rd.i64()
	r.Beta = rd.f64()
	r.RwndClamp = rd.i64()
	pflags := rd.u8()
	r.PolDisable = pflags&1 != 0
	r.PolVCC = rd.str()
	r.VCCName = rd.str()
	// The enforcement-backend tail (a backend name and its per-flow scalar)
	// is optional, so records that end at VCCName still decode. Its values
	// name mechanisms this build no longer has: read, and ignored — every
	// restored flow is enforced by the RWND rewrite.
	if rd.err == nil && rd.off < len(rd.buf) {
		rd.str()
		if rd.err == nil && rd.off+8 <= len(rd.buf) {
			rd.f64()
		}
	}
	if rd.err != nil {
		d.fail("record too short (%d bytes)", n)
	}
	// Bytes past the backend tail belong to a newer writer: ignored by design.
	return r
}

// decodeSnapshot validates framing and checksum and returns the records.
// It never panics on arbitrary input (pinned by FuzzSnapshotDecode).
func decodeSnapshot(data []byte) (capturedAt sim.Time, recs []flowRecord, err error) {
	if len(data) < snapshotHeaderLen+4 {
		return 0, nil, fmt.Errorf("snapshot: %d bytes is shorter than header+crc", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	wantCRC := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 |
		uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return 0, nil, fmt.Errorf("snapshot: CRC mismatch (got %08x want %08x)", got, wantCRC)
	}
	d := &snapDecoder{buf: body}
	var magic [8]byte
	copy(magic[:], d.take(8))
	if magic != snapshotMagic {
		return 0, nil, fmt.Errorf("snapshot: bad magic %q", magic[:])
	}
	version := d.u16()
	if version < 1 {
		return 0, nil, fmt.Errorf("snapshot: bad version %d", version)
	}
	d.u16() // reserved
	capturedAt = sim.Time(d.i64())
	count := d.u32()
	// Each record costs at least its length prefix + fixed fields; refuse
	// counts the remaining bytes cannot possibly hold (bounds allocation).
	if int64(count)*(2+recordFixedLen) > int64(len(body)-d.off) {
		return 0, nil, fmt.Errorf("snapshot: count %d exceeds payload", count)
	}
	recs = make([]flowRecord, 0, count)
	for i := uint32(0); i < count; i++ {
		r := d.record()
		if d.err != nil {
			return 0, nil, d.err
		}
		recs = append(recs, r)
	}
	if d.off != len(body) {
		return 0, nil, fmt.Errorf("snapshot: %d trailing bytes after %d records", len(body)-d.off, count)
	}
	return capturedAt, recs, nil
}

// sanitize clamps decoded numerics to ranges the enforcement math tolerates.
// The CRC catches wire corruption; this catches forgeries and future-writer
// drift, so a restored flow can never carry NaN windows, inverted sequence
// state, or an out-of-range α into the datapath.
func (r *flowRecord) sanitize(cfg *Config) {
	if r.MSS < 64 || r.MSS > 65535 {
		r.MSS = cfg.MTU - 40
	}
	mss := float64(r.MSS)
	iw := initCwndPkts * mss
	if !finitePositive(r.CwndBytes) {
		r.CwndBytes = iw
	}
	if !finitePositive(r.SsthreshBytes) {
		r.SsthreshBytes = 1 << 40
	}
	if !(r.prevCwnd >= 0) || math.IsInf(r.prevCwnd, 0) {
		r.prevCwnd = 0
	}
	if !(r.Alpha >= 0) { // NaN fails this too
		r.Alpha = initAlpha
	}
	if r.Alpha > 1 {
		r.Alpha = 1
	}
	// Policy fields go through the same sanitizer as the live FlowPolicy
	// path (VSwitch.policy), so a restored flow and a fresh one obey one
	// contract: β ∈ [0,1], non-negative clamp, known vCC name.
	pol := Policy{Beta: r.Beta, RwndClampBytes: r.RwndClamp,
		VCC: r.PolVCC, Disable: r.PolDisable}.sanitize()
	r.Beta, r.RwndClamp, r.PolVCC = pol.Beta, pol.RwndClampBytes, pol.VCC
	if r.SndUna > r.SndNxt {
		r.SndUna = r.SndNxt
	}
	if r.VTimeouts < 0 {
		r.VTimeouts = 0
	}
	if r.LossEvents < 0 {
		r.LossEvents = 0
	}
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
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
	sort.Slice(recs, func(i, j int) bool { return lessKey(recs[i].Key, recs[j].Key) })
	v.Metrics.SnapshotSaves.Inc()
	return encodeSnapshot(v.Sim.Now(), recs)
}

func lessKey(a, b FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SPort != b.SPort {
		return a.SPort < b.SPort
	}
	return a.DPort < b.DPort
}

// RestoreSnapshot decodes data and installs the flows into the table.
// Corrupt input fails open: the table is reset to empty, traffic continues
// untouched, snapshot_corrupt_total is incremented, and the error is
// returned for logging. Every restored data-direction flow enters the
// conservative resync mode (resync.go) before enforcement resumes, and the
// policy fields route through the Sanitized choke point (flowRecord.sanitize).
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
		r.sanitize(&v.Cfg)
		f := v.flowForRestore(r.Key)
		if f == nil {
			// Table at capacity (MaxFlows smaller than the snapshot): the
			// overflow flows fail open exactly like new flows at capacity.
			continue
		}
		f.PeerWScale = r.PeerWScale
		f.WScaleKnown = r.WScaleKnown
		f.GuestECN = r.GuestECN
		f.synSeen = r.synSeen
		f.synAckSeen = r.synAckSeen
		f.issValid = r.issValid
		f.finFwd = r.finFwd
		f.finRev = r.finRev
		f.MSS = int32(r.MSS)
		f.iss = r.iss
		f.SndUna = r.SndUna
		f.SndNxt = r.SndNxt
		f.CwndBytes = r.CwndBytes
		f.SsthreshBytes = r.SsthreshBytes
		f.Alpha = r.Alpha
		f.lastTotal = r.lastTotal
		f.lastMarked = r.lastMarked
		f.windowTotal = r.windowTotal
		f.windowMarked = r.windowMarked
		f.alphaSeq = r.alphaSeq
		f.cutSeq = r.cutSeq
		f.prevCwndBytes = r.prevCwnd
		f.TotalBytes = r.TotalBytes
		f.MarkedBytes = r.MarkedBytes
		if r.VTimeouts != 0 || r.LossEvents != 0 || f.cold != nil {
			c := f.writeCold()
			c.vTimeouts, c.lossEvents = r.VTimeouts, r.LossEvents
		}
		f.Policy = v.intern(Policy{Beta: r.Beta, RwndClampBytes: r.RwndClamp,
			VCC: r.PolVCC, Disable: r.PolDisable})
		v.setLaw(f) // swap the growth law like applyToLive does
		f.maxInflight = f.SndNxt - f.SndUna
		f.lastActive = now
		if f.issValid {
			// Even a fresh snapshot is one outage behind the wire: packets
			// were in flight while the vSwitch was down. Re-enter
			// enforcement through the conservative resync round.
			f.enterResyncLocked()
		}
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
	v.trimParked(0) // the process died: its free list goes with the table
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
