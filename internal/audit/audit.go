// Package audit is the datapath invariant oracle: a pluggable checker that
// attaches to a core.VSwitch and verifies, on every packet and enforcement
// state transition, the properties the paper's whole value proposition rests
// on (§3.1–§3.4, Equation 1, Figure 5):
//
//   - the RWND field is never rewritten wider, and a rewrite never exceeds
//     min(original RWND, virtual CWND) under the learned window scale;
//   - egress data segments leave ECN-capable (ECT) when marking is on;
//   - CE never leaks to the guest when stripping is on;
//   - the cumulative PACK/FACK feedback credited into the α window is
//     monotone with marked ≤ total;
//   - α ∈ [0,1] and the Eq. 1 marked fraction ∈ [0,1];
//   - the multiplicative-decrease factor ∈ [0,1], and for DCTCP with
//     β ∈ [0,1] within [1−α, 1−α/2];
//   - the virtual window stays within [minRwnd, 65535≪wscale];
//   - snd_una ≤ snd_nxt and both are monotone;
//   - policing never drops an in-window segment;
//   - resyncing (conservative-mode) flows are never rewritten or policed.
//
// Violations increment per-rule audit_violations_total counters in the
// vSwitch's own metrics registry — lazily, so an audit-clean run's telemetry
// stays byte-identical to a run without the auditor — log the flow key and a
// packet summary, and optionally panic (test mode: the chaos and restart
// suites run with Panic set so any violation fails the build immediately).
//
// The auditor is an oracle, not a second enforcement path: it re-derives
// each invariant from the event data core hands it, so a regression in the
// enforcement code trips the corresponding rule instead of slipping through.
package audit

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"

	"acdc/internal/core"
	"acdc/internal/metrics"
	"acdc/internal/packet"
)

// Rule names one audited invariant; the per-rule violation counter is
// audit_violations_total{rule=<Rule>}.
type Rule string

// The audit rules, mapped to their paper sections in DESIGN.md §5b.
const (
	RuleRwndWidened   Rule = "rwnd_widened"     // §3.3: RWND rewritten wider than the guest advertised
	RuleRwndExceeds   Rule = "rwnd_exceeds"     // §3.3: rewrite above min(orig, vCWND) under wscale
	RuleECTMissing    Rule = "ect_missing"      // §3.2: egress data segment left without ECT
	RuleCELeaked      Rule = "ce_leaked"        // §3.2: CE reached the guest despite stripping
	RuleFeedbackCred  Rule = "feedback_credit"  // §3.2: non-monotone or marked>total feedback credited
	RuleAlphaRange    Rule = "alpha_range"      // Fig 5: α or its Eq. 1 input outside [0,1]
	RuleCutFactor     Rule = "cut_factor"       // Eq. 1: cut factor outside [1−α, 1−α/2] (β∈[0,1])
	RuleVCwndRange    Rule = "vcwnd_range"      // §3.3: virtual CWND outside [minRwnd, 65535≪wscale]
	RuleSeqOrder      Rule = "seq_order"        // §3.1: snd_una/snd_nxt regressed or crossed
	RulePoliceWindow  Rule = "police_in_window" // §3.3: policing dropped an in-window segment
	RuleResyncRewrite Rule = "resync_rewrite"   // resync.go: conservative-mode flow enforced anyway
)

// Rules lists every audited invariant (stable order, for self-tests and docs).
func Rules() []Rule {
	return []Rule{
		RuleRwndWidened, RuleRwndExceeds, RuleECTMissing, RuleCELeaked,
		RuleFeedbackCred, RuleAlphaRange, RuleCutFactor, RuleVCwndRange,
		RuleSeqOrder, RulePoliceWindow, RuleResyncRewrite,
	}
}

// eps absorbs float rounding in the Eq. 1 bound checks.
const eps = 1e-9

// Config parameterizes an auditor.
type Config struct {
	// Panic makes the first violation panic with the formatted report (test
	// mode: chaos suites run with this set so CI fails loudly).
	Panic bool
	// MaxLog bounds the number of violations logged to the standard logger
	// (counters keep counting past it). 0 means the default of 32.
	MaxLog int
	// Sample, when > 1, checks only every Sample-th packet and ACK event —
	// the long-lived service mode runs the auditor continuously, and 1-in-N
	// sampling keeps its cost a budget line instead of a tax on every
	// packet. State-transition events (window cuts, policing drops) are
	// ALWAYS checked: they are rare, and they carry the invariants a
	// sampled packet stream could miss entirely (a hostile β shows up in
	// every cut, not in every packet). 0 or 1 means check everything.
	Sample int
}

// Auditor implements core.Auditor: it checks every event against the rule
// set and records violations. One Auditor audits one VSwitch (its counters
// live in that vSwitch's registry). All methods are concurrency-safe.
type Auditor struct {
	cfg Config

	// Per-rule violation counts: lazy registry counters for telemetry plus
	// plain atomics so tests can read exact counts.
	lazy  map[Rule]*metrics.LazyCounter
	local map[Rule]*atomic.Int64
	total atomic.Int64
	seq   atomic.Uint64 // sampling sequence for PacketEvent/AckEvent

	mu     sync.Mutex
	logged int
	recent []string // first MaxLog formatted violations, for tests/reports
}

// Attach builds an Auditor over v's metrics registry and installs it as the
// vSwitch's audit hook. Call before traffic flows.
func Attach(v *core.VSwitch, cfg Config) *Auditor {
	a := New(v.Metrics.Registry(), cfg)
	v.Audit = a
	return a
}

// New builds an Auditor whose violation counters register (lazily) in reg.
// reg may be nil: counting then happens only in the auditor's own atomics.
func New(reg *metrics.Registry, cfg Config) *Auditor {
	if cfg.MaxLog == 0 {
		cfg.MaxLog = 32
	}
	a := &Auditor{cfg: cfg,
		lazy:  make(map[Rule]*metrics.LazyCounter, len(Rules())),
		local: make(map[Rule]*atomic.Int64, len(Rules()))}
	for _, r := range Rules() {
		a.lazy[r] = reg.Lazy("audit_violations_total{rule=" + string(r) + "}")
		a.local[r] = new(atomic.Int64)
	}
	return a
}

// violate records one violation of rule. The formatted report includes the
// rule name so a panic or log line is self-describing.
func (a *Auditor) violate(rule Rule, format string, args ...any) {
	a.local[rule].Add(1)
	a.total.Add(1)
	a.lazy[rule].Inc()
	msg := fmt.Sprintf("audit: %s: %s", rule, fmt.Sprintf(format, args...))
	if a.cfg.Panic {
		panic(msg)
	}
	a.mu.Lock()
	if a.logged < a.cfg.MaxLog {
		a.logged++
		a.recent = append(a.recent, msg)
		a.mu.Unlock()
		log.Print(msg)
		return
	}
	a.mu.Unlock()
}

// sampled reports whether this packet/ACK event falls in the 1-in-Sample
// check budget. Atomic so concurrent datapaths share one sequence.
func (a *Auditor) sampled() bool {
	if a.cfg.Sample <= 1 {
		return true
	}
	return a.seq.Add(1)%uint64(a.cfg.Sample) == 0
}

// Total returns the number of violations recorded across all rules.
func (a *Auditor) Total() int64 { return a.total.Load() }

// --- core.Auditor implementation ---

// PacketEvent checks the packet-level invariants: no window widening on the
// packet that traversed the vSwitch, ECT on egress, no CE toward the guest.
func (a *Auditor) PacketEvent(v *core.VSwitch, dir core.AuditDir, pre core.PacketPre,
	out, extra *packet.Packet, outIsInput bool) {
	if !pre.Auditable {
		return
	}
	if !a.sampled() {
		return
	}
	if v.Metrics.FailOpen.Value() != pre.FailOpenBefore {
		// The traversal took a documented fail-open path (e.g. flow table at
		// capacity): the packet legitimately passed through untouched.
		return
	}
	switch dir {
	case core.AuditEgress:
		if v.Cfg.MarkECT {
			a.checkECT(out, pre)
			a.checkECT(extra, pre)
		}
	case core.AuditIngress:
		if out == nil {
			return // consumed (FACK): nothing reaches the guest
		}
		ip := out.IP()
		if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
			return
		}
		t := ip.TCP()
		if !t.Valid() {
			return
		}
		if outIsInput && t.Window() > pre.Wnd {
			a.violate(RuleRwndWidened,
				"%s: window %d rewritten wider to %d (flags %#x payload %d)",
				dir, pre.Wnd, t.Window(), pre.Flags, pre.Payload)
		}
		if v.Cfg.StripECN && ip.ECN() == packet.CE {
			a.violate(RuleCELeaked,
				"%s: CE reached the guest (in ECN %v, flags %#x payload %d)",
				dir, pre.ECN, pre.Flags, pre.Payload)
		}
	}
}

// checkECT flags a valid egress TCP packet that left without an ECN-capable
// codepoint while §3.2 marking is on.
func (a *Auditor) checkECT(p *packet.Packet, pre core.PacketPre) {
	if p == nil {
		return
	}
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
		return
	}
	if ip.ECN() == packet.NotECT {
		a.violate(RuleECTMissing,
			"egress segment left NotECT with MarkECT on (flags %#x payload %d)",
			pre.Flags, pre.Payload)
	}
}

// AckEvent checks the sender-module invariants after one ACK pass.
func (a *Auditor) AckEvent(v *core.VSwitch, e core.AckEvent) {
	if !a.sampled() {
		return
	}
	// §3.1 connection tracking: absolute sequence state never regresses and
	// never inverts.
	if e.SndUna < e.PrevSndUna || e.SndNxt < e.PrevSndNxt || e.SndUna > e.SndNxt {
		a.violate(RuleSeqOrder,
			"%v: snd_una %d→%d snd_nxt %d→%d",
			e.Key, e.PrevSndUna, e.SndUna, e.PrevSndNxt, e.SndNxt)
	}
	// §3.2 feedback: the credited deltas must be sane — a ≥2^31 credit means
	// a cumulative regression (peer restart) was credited instead of
	// re-baselined; marked > total means an impossible report entered the α
	// window.
	if e.HaveFeedback {
		if e.CreditedTotal >= 1<<31 || e.CreditedMarked >= 1<<31 {
			a.violate(RuleFeedbackCred,
				"%v: non-monotone feedback credited (total +%d, marked +%d)",
				e.Key, e.CreditedTotal, e.CreditedMarked)
		} else if e.CreditedMarked > e.CreditedTotal {
			a.violate(RuleFeedbackCred,
				"%v: marked delta %d exceeds total delta %d",
				e.Key, e.CreditedMarked, e.CreditedTotal)
		}
	}
	// Figure 5 / Eq. 1: α and its input fraction live in [0,1].
	if math.IsNaN(e.Alpha) || e.Alpha < 0 || e.Alpha > 1 {
		a.violate(RuleAlphaRange, "%v: α = %v", e.Key, e.Alpha)
	}
	if e.AlphaUpdated && (math.IsNaN(e.AlphaFrac) || e.AlphaFrac < 0 || e.AlphaFrac > 1) {
		a.violate(RuleAlphaRange, "%v: Eq.1 marked fraction = %v", e.Key, e.AlphaFrac)
	}
	// §3.3: the virtual window is bounded below by the enforcement floor and
	// above by the largest value the RWND field can express.
	if math.IsNaN(e.CwndBytes) || math.IsInf(e.CwndBytes, 0) ||
		e.CwndBytes < float64(e.MinRwnd)-eps ||
		(e.WScaleKnown && e.CwndBytes > float64(int64(65535)<<e.WScale)+eps) {
		a.violate(RuleVCwndRange,
			"%v: vCWND %v outside [%d, 65535<<%d]",
			e.Key, e.CwndBytes, e.MinRwnd, e.WScale)
	}
	// §3.3 enforcement: a rewrite only ever narrows, and the written field,
	// descaled, never exceeds the enforced window (modulo the one-granule
	// floor the field encoding forces when enforced >> wscale rounds to 0).
	if e.Overwrote {
		if e.Resyncing {
			a.violate(RuleResyncRewrite,
				"%v: RWND rewritten while resyncing (%d→%d)",
				e.Key, e.OrigWnd, e.NewWnd)
		}
		if e.NewWnd > e.OrigWnd {
			a.violate(RuleRwndWidened,
				"%v: enforcement widened RWND %d→%d", e.Key, e.OrigWnd, e.NewWnd)
		}
		granule := int64(1) << e.WScale
		if scaled := int64(e.NewWnd) << e.WScale; scaled > e.Enforced && scaled > granule {
			a.violate(RuleRwndExceeds,
				"%v: wrote %d<<%d = %d > enforced %d",
				e.Key, e.NewWnd, e.WScale, scaled, e.Enforced)
		}
	}
}

// CutEvent checks one multiplicative decrease against Equation 1.
func (a *Auditor) CutEvent(v *core.VSwitch, e core.CutEvent) {
	if math.IsNaN(e.Factor) || e.Factor < -eps || e.Factor > 1+eps {
		a.violate(RuleCutFactor, "%v: cut factor %v outside [0,1] (α=%v β=%v loss=%v)",
			e.Key, e.Factor, e.Alpha, e.Beta, e.Loss)
		return
	}
	// Equation 1 for the DCTCP law with β ∈ [0,1]: 1−α ≤ factor ≤ 1−α/2.
	if e.Alg == "dctcp" && e.Beta >= 0 && e.Beta <= 1 &&
		e.Alpha >= 0 && e.Alpha <= 1 {
		if e.Factor < 1-e.Alpha-eps || e.Factor > 1-e.Alpha/2+eps {
			a.violate(RuleCutFactor,
				"%v: Eq.1 factor %v outside [1−α, 1−α/2] = [%v, %v] (β=%v)",
				e.Key, e.Factor, 1-e.Alpha, 1-e.Alpha/2, e.Beta)
		}
	}
}

// PoliceEvent checks that §3.3 policing only drops segments genuinely beyond
// the enforced window plus slack, and never polices a conservative-mode flow.
func (a *Auditor) PoliceEvent(v *core.VSwitch, e core.PoliceEvent) {
	if !e.Dropped {
		return
	}
	if e.Resyncing {
		a.violate(RulePoliceWindow,
			"%v: policed while resyncing (segEnd %d snd_una %d)",
			e.Key, e.SegEnd, e.SndUna)
		return
	}
	if e.SegEnd-e.SndUna <= e.Enforced+e.Slack {
		a.violate(RulePoliceWindow,
			"%v: dropped in-window segment: segEnd−snd_una %d ≤ enforced %d + slack %d",
			e.Key, e.SegEnd-e.SndUna, e.Enforced, e.Slack)
	}
}

var _ core.Auditor = (*Auditor)(nil)
