// Package core implements AC/DC TCP, the paper's contribution: per-flow
// congestion control enforced in the vSwitch. The sender module shadows each
// flow's TCP state, runs an administrator-chosen virtual congestion-control
// algorithm (DCTCP by default), and enforces the resulting window by
// overwriting the receive-window field of ACKs headed to the guest. The
// receiver module counts CE-marked bytes and feeds them back in a PACK
// option piggybacked on ACKs (or a dedicated FACK packet), stripping all ECN
// signals before they reach the guest.
package core

import (
	"fmt"
	"math"
	"sync"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// FlowKey identifies a flow by the 5-tuple of its *data* direction (the
// paper hashes on IPs, ports and VLAN; we have no VLANs).
type FlowKey struct {
	Src, Dst     packet.Addr
	SPort, DPort uint16
}

// Reverse returns the key of the opposite data direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SPort: k.DPort, DPort: k.SPort}
}

// Policy is the per-flow differentiation knob set (§3.4).
type Policy struct {
	// Beta is the priority in Equation 1, rwnd ← rwnd·(1 − (α − α·β/2)).
	// 1 = plain DCTCP; 0 = maximum back-off (bounded below by one MSS).
	Beta float64
	// RwndClampBytes caps the enforced window (bandwidth allocation, Fig 6);
	// 0 = no cap.
	RwndClampBytes int64
	// VCC overrides the virtual congestion-control algorithm for this flow
	// ("" = the vSwitch default).
	VCC string
	// Backend overrides the enforcement backend for this flow ("dctcp-cut",
	// "pace", "adaptive-k"; "" = the vSwitch default). Unknown names are
	// clamped to "" by sanitize — a backend name, unlike β, can never make
	// enforcement unsafe, so no install path treats it as an error.
	Backend string
	// Disable exempts the flow from enforcement entirely.
	Disable bool
}

// DefaultPolicy is plain DCTCP enforcement.
func DefaultPolicy() Policy { return Policy{Beta: 1} }

// defaultPolicy is what every flow without an override or a FlowPolicy points
// at.
var defaultPolicy = DefaultPolicy()

// Sanitized is the policy choke point: every path that installs a policy
// into a flow — the live FlowPolicy callback (VSwitch.policy), runtime
// installs (VSwitch.InstallPolicy), snapshot restore (flowRecord.sanitize),
// and scenario-spec policies (internal/scenario) — routes through it, so a
// hostile or malformed policy can never reach the enforcement math from any
// direction. See sanitize for the exact clamps.
func (p Policy) Sanitized() Policy { return p.sanitize() }

// Validate reports why a policy would be rejected at an API boundary (the
// daemon's policy stream, a config file). Sanitized silently clamps the same
// conditions for paths that must make forward progress (a restored snapshot,
// a callback's return value); Validate is for surfaces that can say no.
func (p Policy) Validate() error {
	if math.IsNaN(p.Beta) || p.Beta < 0 || p.Beta > 1 {
		return fmt.Errorf("policy: beta %v outside [0,1]", p.Beta)
	}
	if p.RwndClampBytes < 0 {
		return fmt.Errorf("policy: negative rwnd clamp %d", p.RwndClampBytes)
	}
	if !vccKnown(p.VCC) {
		return fmt.Errorf("policy: unknown vcc %q (want dctcp, reno, or empty)", p.VCC)
	}
	// Backend is deliberately NOT validated here: an unknown backend name
	// must fail open to the default mechanism mid-stream (sanitize clamps
	// it; backend_unknown_total counts it), never bounce a policy install.
	// Parse surfaces that can say no early use ParseBackend instead.
	return nil
}

// sanitize clamps a policy to the ranges the enforcement math tolerates:
// β ∈ [0,1] (Equation 1 is only a *decrease* there; β>1 would grow the
// window on congestion and NaN would poison every cut), a non-negative
// RwndClampBytes (negative would silently disable the cap), and a known
// virtual-CC name (an unknown one would panic flow setup; it degrades to
// the vSwitch default instead, exactly like snapshot restore). Shared by
// the live FlowPolicy path (VSwitch.policy) and snapshot restore
// (flowRecord.sanitize), so both installation paths enforce one contract.
func (p Policy) sanitize() Policy {
	if !(p.Beta >= 0) { // NaN fails this comparison too
		p.Beta = 1
	}
	if p.Beta > 1 {
		p.Beta = 1
	}
	if p.RwndClampBytes < 0 {
		p.RwndClampBytes = 0
	}
	if !vccKnown(p.VCC) {
		p.VCC = ""
	}
	if !backendKnown(p.Backend) {
		p.Backend = ""
	}
	return p
}

// Flow is one direction's connection-tracking entry (~the paper's 320-byte
// flow state). The same struct serves as sender-module state on the host
// that sources the data and receiver-module state on the host that sinks it.
//
// Fields are ordered by how often the datapath touches them, not by module,
// because at 10k+ flows every cache line of a record is a miss: what every
// packet reads sits in the first 64 bytes, all the sender module touches per
// data segment and per ACK in the next 128, the rest in the last line. The
// struct fills the 256-byte malloc size class, so a record is four aligned
// lines (TestFlowSizeClass, TestFlowHotFieldsLayout); a new field goes behind
// the cold pointer, or every flow pays for it.
type Flow struct {
	// --- line 0: every packet (lock, link, liveness, receiver module) ---
	mu sync.Mutex
	flowState
}

// flowState is every field of a Flow but its mutex: a recycled record is
// re-initialised by one flowState assignment under mu (VSwitch.buildFlow), so
// a field added here cannot be left holding the previous flow's value.
type flowState struct {
	iss         uint32 // guest's initial sequence number; valid once issValid
	lastAckWire uint32 // last ACK's seq field (dupack synthesis)
	// peer caches the record tracking Key.Reverse(), valid while peerGen
	// equals the table's deletion generation (Table.reverseOf). Both belong
	// to the datapath goroutine alone: mu does not guard them, snapshot, policy
	// install and Range code never touches them, and the snapshot codec skips
	// them — a restored, re-created or recycled flow starts unlinked.
	peer       *Flow
	peerGen    uint64
	lastActive sim.Time
	// receiver module (§3.2)
	TotalBytes  uint32 // cumulative payload bytes received
	MarkedBytes uint32 // cumulative CE-marked payload bytes
	// sender module, per ACK, in this line's spare words
	MSS     int32
	DupAcks int32
	// GuestECN records whether the guests negotiated ECN end to end; the
	// receiver module uses it to restore the original ECN semantics.
	GuestECN bool
	issValid bool
	// resync is the conservative-mode state machine for flows adopted
	// without a handshake (mid-stream pickup, snapshot restore); while it
	// is not resyncNone, RWND enforcement and policing are suspended
	// (resync.go).
	resync      resyncState
	finFwd      bool // FIN seen in the data direction
	finRev      bool // FIN seen in the reverse direction
	isUDP       bool // UDP tunnel flow (future-work extension; see tunnel.go)
	WScaleKnown bool
	// PeerWScale is the window scale applied to the RWND field of ACKs
	// flowing back to the data sender (announced by the data receiver).
	PeerWScale uint8

	// --- lines 1–2: sender module, per data segment and per ACK (§3.1) ---
	SndUna      int64 // absolute offsets, SYN at 0
	SndNxt      int64
	maxInflight int64 // peak SndNxt−SndUna since the last ACK
	inactivity  *sim.Timer
	// feedback accounting between α updates
	lastTotal, lastMarked     uint32
	windowTotal, windowMarked uint32

	CwndBytes     float64
	SsthreshBytes float64
	Alpha         float64
	alphaSeq      int64   // next α-update boundary (abs)
	cutSeq        int64   // window-cut guard (abs)
	prevCwndBytes float64 // cwnd before last cut (policing slack)
	// Feedback-staleness tracking: when PACK/FACK feedback had been flowing
	// but stops (stripped by a middlebox, lost in the fabric), the sender
	// module freezes virtual-window growth rather than growing blind.
	lastFeedbackAt sim.Time // 0 until the first PACK/FACK arrives
	fbStaleMark    sim.Time // last time the stale condition was counted
	// Policy points at a sanitized value other flows may share (the default,
	// an interned FlowPolicy answer, an override): replace, never write it.
	Policy *Policy
	// Last ACK's raw (pre-rewrite) window field: a duplicate ACK requires an
	// unchanged window, so pure window updates never count toward the
	// triple-dupack loss inference.
	lastWndRaw  uint16
	lastWndSeen bool
	// vcc and be index the growth law and the enforcement backend, resolved
	// from the policy and the config (VSwitch.setLaws).
	vcc        vccID
	be         backendID
	synSeen    bool
	synAckSeen bool

	// --- line 3: per cut, per loss, cold ---
	Key FlowKey
	// parkedAt is v.sweepTick, the per-packet epoch, when the record went on
	// the free list: newFlow refuses one parked by the datapath call it runs
	// in, whose caller may still hold the pointer.
	parkedAt uint32
	// resyncSeq is the absolute sequence one clean feedback round must
	// cover before enforcement resumes.
	resyncSeq  int64
	VTimeouts  int64
	LossEvents int64
	// cold is what only some flows carry, nil on plain TCP flows; a record
	// with it is never recycled (VSwitch.retire).
	cold *flowCold
	_    [16]byte // to the 256-byte size class: records start on a line
}

// flowCold is the state behind Flow.cold.
type flowCold struct {
	bes backendState // backend.go
	tun tunnelState  // tunnel.go
}

// coldState returns f's cold state, made on first use. Caller holds f.mu.
func (f *Flow) coldState() *flowCold {
	if f.cold == nil {
		f.cold = &flowCold{}
	}
	return f.cold
}

// Snapshot is a consistent copy of the enforcement-relevant state, used by
// instrumentation (Figures 9 and 10).
type Snapshot struct {
	CwndBytes   float64
	Alpha       float64
	SndUna      int64
	SndNxt      int64
	TotalBytes  uint32
	MarkedBytes uint32
	// Resyncing reports conservative mode: the flow was adopted without a
	// handshake and enforcement is suspended until one clean feedback round
	// completes (resync.go).
	Resyncing bool
}

// Snapshot returns a locked copy of the flow's key state.
func (f *Flow) Snapshot() Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Snapshot{
		CwndBytes: f.CwndBytes, Alpha: f.Alpha,
		SndUna: f.SndUna, SndNxt: f.SndNxt,
		TotalBytes: f.TotalBytes, MarkedBytes: f.MarkedBytes,
		Resyncing: f.resync != resyncNone,
	}
}

// absSeq maps a wire sequence number near ref into absolute offset space.
func (f *Flow) absSeq(wire uint32, ref int64) int64 {
	delta := int64(int32(wire - (f.iss + uint32(ref))))
	return ref + delta
}

// enforcedWindow applies the floor and per-flow clamp to the virtual cwnd
// and returns the window to advertise, in bytes.
func (f *Flow) enforcedWindow(minRwnd int64) int64 {
	w := int64(f.CwndBytes)
	if f.Policy.RwndClampBytes > 0 && w > f.Policy.RwndClampBytes {
		w = f.Policy.RwndClampBytes
	}
	if w < minRwnd {
		w = minRwnd
	}
	return w
}
