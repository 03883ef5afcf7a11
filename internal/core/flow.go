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
	"cmp"
	"fmt"
	"math"
	"unsafe"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// FlowKey identifies a flow by the 5-tuple of its *data* direction (the
// paper hashes on IPs, ports and VLAN; we have no VLANs).
type FlowKey struct {
	Src, Dst     packet.Addr
	SPort, DPort uint16
}

// Compare orders keys by source, destination, source port, then destination
// port: the order of a checkpoint and of the daemon's flow listing.
func (k FlowKey) Compare(o FlowKey) int {
	return cmp.Or(cmp.Compare(k.Src, o.Src), cmp.Compare(k.Dst, o.Dst),
		cmp.Compare(k.SPort, o.SPort), cmp.Compare(k.DPort, o.DPort))
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
// installs (VSwitch.InstallPolicy) and snapshot restore (flowRecord.policy)
// — routes through it, so a hostile or malformed policy can never reach the
// enforcement math from any direction. See sanitize for the exact clamps.
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
	return nil
}

// sanitize clamps a policy to the ranges the enforcement math tolerates:
// β ∈ [0,1] (Equation 1 is only a *decrease* there; β>1 would grow the
// window on congestion and NaN would poison every cut), a non-negative
// RwndClampBytes (negative would silently disable the cap), and a known
// virtual-CC name (an unknown one would panic flow setup; it degrades to
// the vSwitch default instead, exactly like snapshot restore). Shared by
// the live FlowPolicy path (VSwitch.policy) and snapshot restore
// (flowRecord.policy), so both installation paths enforce one contract.
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
	return p
}

// Flow is one direction's connection-tracking entry (the paper budgets ~320
// bytes of flow state). What every packet reads — link, liveness, policy, the
// receiver module's counters (§3.2), key and flags — is one 64-byte line. The
// sender module's state (§3.1) is a senderBlock behind the embedded pointer,
// whose fields are promoted, so readers never branch. A record made where
// its host sends is a senderFlow, record and block in three aligned lines; a
// record keyed toward its host is bare, 64 bytes on the vSwitch's read-only
// defaults (TestFlowSizeClass, TestFlowHotFieldsLayout,
// TestPeerRecordHasNoSenderBlock). Every sender-module write first gives a
// bare record a block of its own (VSwitch.ownSender). A field most flows
// leave zero goes behind the cold pointer, or every flow pays for it.
//
// A recycled record is re-initialised by one Flow assignment, and its block
// by one senderBlock assignment (VSwitch.buildFlow), so a field added here
// cannot be left holding the previous flow's value.
type Flow struct {
	// peer is the record tracking Key.Reverse(), linked both ways: nil, or
	// that record with its peer pointing back (Table.reverseOf). The snapshot
	// codec skips it: a restored, re-created or recycled flow starts
	// unlinked.
	peer       *Flow
	lastActive sim.Time
	*senderBlock
	// Policy points at a sanitized value other flows may share (the default,
	// an interned FlowPolicy answer, an override): replace, never write it.
	Policy *Policy
	// receiver module (§3.2)
	TotalBytes  uint32  // cumulative payload bytes received
	MarkedBytes uint32  // cumulative CE-marked payload bytes
	Key         FlowKey // an index probe whose hash matches confirms it here
	iss         uint32  // guest's initial sequence number; valid once issValid
	// GuestECN records whether the guests negotiated ECN end to end; the
	// receiver module uses it to restore the original ECN semantics.
	GuestECN   bool
	finFwd     bool // FIN seen in the data direction
	finRev     bool // FIN seen in the reverse direction
	isUDP      bool // UDP tunnel flow (future-work extension; see tunnel.go)
	synSeen    bool
	synAckSeen bool
	// vcc is the flow's law, resolved from its policy (VSwitch.setLaw).
	vcc vccID
	// inline marks a senderFlow: it picks the free list, and lets sender find
	// the block without loading the pointer.
	inline bool
}

// senderBlock is the sender module's per-flow state (§3.1), two lines. The
// vSwitch's shared defaults are never written.
type senderBlock struct {
	SndUna      int64 // absolute offsets, SYN at 0
	SndNxt      int64
	maxInflight int64 // peak SndNxt−SndUna since the last ACK

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
	// cold holds what most flows never write (flowCold); nil until one does.
	cold *flowCold

	lastAckWire uint32 // last ACK's seq field (dupack synthesis)
	MSS         int32
	DupAcks     int32
	// vtimeout is the inactivity deadline (§3.1) in the vSwitch's vtimeouts;
	// vtArmed records that this flow has armed it, which a recycled record
	// must not inherit (buildFlow clears both).
	vtimeout sim.Deadline
	// feedback accounting between α updates
	lastTotal, lastMarked     uint32
	windowTotal, windowMarked uint32
	// Last ACK's raw (pre-rewrite) window field: a duplicate ACK requires an
	// unchanged window, so pure window updates never count toward the
	// triple-dupack loss inference.
	lastWndRaw uint16
	vtArmed    bool
	issValid   bool
	// resync is the conservative-mode state machine for flows adopted
	// without a handshake (mid-stream pickup, snapshot restore); while it
	// is not resyncNone, RWND enforcement and policing are suspended
	// (resync.go).
	resync      resyncState
	WScaleKnown bool
	// PeerWScale is the window scale applied to the RWND field of ACKs
	// flowing back to the data sender (announced by the data receiver).
	PeerWScale  uint8
	lastWndSeen bool
}

// sender returns f.senderBlock, a senderFlow's at its fixed offset: the entries
// that use it load the block's lines beside the record's, not after them.
func (f *Flow) sender() *senderBlock {
	if f.inline {
		return &(*senderFlow)(unsafe.Pointer(f)).s
	}
	return f.senderBlock
}

// senderFlow is a record made where its host sends, with its block.
type senderFlow struct {
	Flow
	s senderBlock
}

// flowCold is what most plain TCP flows leave zero for their whole life, kept
// behind Flow.cold: the resync target, the loss and timeout counts, the
// stale-feedback mark and a UDP tunnel's state. The first write of a non-zero
// value makes it (writeCold); a write of zero to a flow without one is
// skipped, so the per-ACK path allocates nothing.
type flowCold struct {
	// resyncSeq is the absolute sequence one clean feedback round must
	// cover before enforcement resumes (resync.go).
	resyncSeq   int64
	vTimeouts   int64
	lossEvents  int64
	fbStaleMark sim.Time // last time the stale-feedback condition was counted

	// UDP tunnel (tunnel.go)
	tq          []*packet.Packet // sender-side tunnel queue
	tqBytes     int
	fbLastTotal uint32 // receiver side: TotalBytes at last feedback
	fbLastCE    bool
}

// noCold is what readCold returns for a flow without cold state; nothing
// writes it.
var noCold flowCold

// readCold returns f's cold state for reading: zeros when it has none.
func (f *Flow) readCold() *flowCold {
	if f.cold == nil {
		return &noCold
	}
	return f.cold
}

// writeCold returns f's cold state for writing, made on first use.
func (f *Flow) writeCold() *flowCold {
	if f.cold == nil {
		f.cold = &flowCold{}
	}
	return f.cold
}

// VTimeouts counts the inactivity timeouts inferred on the flow (§3.1).
func (f *Flow) VTimeouts() int64 { return f.readCold().vTimeouts }

// LossEvents counts the triple-duplicate-ACK losses inferred on the flow.
func (f *Flow) LossEvents() int64 { return f.readCold().lossEvents }

// Snapshot is a consistent copy of the enforcement-relevant state, used by
// the daemon's flow listing.
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

// Snapshot returns a copy of the flow's key state.
func (f *Flow) Snapshot() Snapshot {
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
