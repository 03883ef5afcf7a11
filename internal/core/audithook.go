package core

import "acdc/internal/packet"

// Audit hook layer: the vSwitch can carry a pluggable oracle (internal/audit)
// that observes every packet and enforcement state transition and checks the
// paper's invariants — RWND never widened, ECT on egress, CE stripped before
// the guest, Equation (1) in bounds, sequence state monotone, policing never
// dropping in-window segments. The hooks are designed so a nil auditor costs
// the hot path exactly one predictable branch and zero allocations: event
// structs are only populated inside `if v.Audit != nil` guards and passed by
// value (stack-only).
//
// All flow-scoped events (AckEvent, CutEvent, PoliceEvent) are delivered in
// the middle of the datapath's work on the flow; implementations must not
// call back into the VSwitch, the Table, or the flow.

// AuditDir distinguishes the two datapath hooks in packet events.
type AuditDir uint8

const (
	// AuditEgress: guest → network (sender module, ECT marking).
	AuditEgress AuditDir = iota
	// AuditIngress: network → guest (receiver module, ECN strip, RWND rewrite).
	AuditIngress
)

// String names the direction for violation logs.
func (d AuditDir) String() string {
	if d == AuditEgress {
		return "egress"
	}
	return "ingress"
}

// Auditor is the oracle interface. internal/audit provides the checking
// implementation; core only emits events.
type Auditor interface {
	// PacketEvent fires after a full EgressPath/IngressPath traversal.
	// pre is the packet as it entered the vSwitch; out/extra are what came
	// back (either may be nil: consumed FACK, policed drop). outIsInput
	// reports pointer identity between the input packet and out — only then
	// do before/after comparisons (window widening) apply.
	PacketEvent(v *VSwitch, dir AuditDir, pre PacketPre, out, extra *packet.Packet, outIsInput bool)
	// AckEvent fires once per sender-module ACK processing pass, after all
	// state updates and the enforcement decision.
	AckEvent(v *VSwitch, e AckEvent)
	// CutEvent fires on every multiplicative decrease.
	CutEvent(v *VSwitch, e CutEvent)
	// PoliceEvent fires when policing drops an egress segment.
	PoliceEvent(v *VSwitch, e PoliceEvent)
}

// PacketPre is the pre-traversal capture of the fields the packet-level
// invariants compare against.
type PacketPre struct {
	// Auditable is the datapath's own verdict (classify): the packet takes
	// full TCP processing. Every other class takes a documented fail-open or
	// passthrough path and is exempt from packet invariants.
	Auditable bool
	Wnd       uint16
	ECN       packet.ECN
	Payload   int
	Flags     uint8
	// FailOpenBefore snapshots fail_open_total before the traversal: a
	// traversal that increments it (e.g. flow table at capacity) legitimately
	// passes packets through untouched, so packet invariants are waived.
	FailOpenBefore int64
}

// CapturePre records the auditable view of p before the datapath runs.
// Exported so auditor implementations and their self-tests can synthesize
// packet events identical to the datapath's own.
func (v *VSwitch) CapturePre(p *packet.Packet) PacketPre {
	pre := PacketPre{FailOpenBefore: v.Metrics.FailOpen.Value()}
	var m pktMeta
	classify(p, v.Cfg.UDPTunnel, &m)
	if m.class != classTCP {
		return pre
	}
	t := p.TCP()
	pre.Auditable = true
	pre.Wnd = t.Window()
	pre.ECN = p.IP().ECN()
	pre.Payload = int(m.plen)
	pre.Flags = t.Flags()
	return pre
}

// AckEvent describes one completed sender-module ACK pass (Figure 5's loop
// body plus the §3.3 enforcement decision).
type AckEvent struct {
	Key FlowKey

	// Sequence state before and after the pass.
	PrevSndUna, PrevSndNxt int64
	SndUna, SndNxt         int64

	// Feedback accounting: the deltas actually credited into the α window
	// (zero when the ACK carried no feedback, was a resync re-baseline, or
	// was recognized as a peer-restart reset).
	HaveFeedback                  bool
	CreditedTotal, CreditedMarked uint32

	// α state after the pass; AlphaFrac is the marked fraction mixed into
	// the EWMA when AlphaUpdated (the once-per-RTT Eq. 1 input).
	Alpha        float64
	AlphaUpdated bool
	AlphaFrac    float64

	// Virtual window after the pass and the bounds it must respect.
	CwndBytes   float64
	MinRwnd     int64
	WScale      uint8
	WScaleKnown bool

	// Enforcement decision.
	Resyncing       bool   // conservative mode at enforcement time
	Enforce         bool   // Cfg.EnforceRwnd and the flow is not Policy.Disable
	Enforced        int64  // enforcedWindow(minRwnd) result in bytes
	OrigWnd, NewWnd uint16 // RWND field before/after
	Overwrote       bool
}

// CutEvent describes one multiplicative decrease (Figure 5 / Equation 1).
type CutEvent struct {
	Key               FlowKey
	Alg               string
	Loss              bool
	Alpha, Beta       float64
	Factor            float64
	PrevCwnd, NewCwnd float64
}

// PoliceEvent describes a §3.3 policing decision that dropped a segment.
type PoliceEvent struct {
	Key             FlowKey
	SegEnd, SndUna  int64
	Enforced, Slack int64
	Resyncing       bool
	Dropped         bool
}
