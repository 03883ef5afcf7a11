package audit

import (
	"bytes"
	"log"
	"strings"
	"testing"

	"acdc/internal/core"
	"acdc/internal/metrics"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// auditVSwitch builds a real vSwitch (paper defaults: MarkECT, StripECN,
// EnforceRwnd) with an attached auditor, for the packet-level rules that
// need v.Cfg and v.Metrics.
// captureLog sends the standard logger, where an Auditor logs its
// violations, to a buffer until the test ends.
func captureLog(t *testing.T) *bytes.Buffer {
	var buf bytes.Buffer
	out, flags := log.Writer(), log.Flags()
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() { log.SetOutput(out); log.SetFlags(flags) })
	return &buf
}

func auditVSwitch(t *testing.T, cfg Config) (*core.VSwitch, *Auditor) {
	t.Helper()
	s := sim.New(1)
	h := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	v := core.Attach(s, h, core.DefaultConfig())
	return v, Attach(v, cfg)
}

func key() core.FlowKey {
	return core.FlowKey{
		Src: packet.MakeAddr(10, 0, 0, 1), Dst: packet.MakeAddr(10, 0, 0, 2),
		SPort: 1000, DPort: 2000,
	}
}

// goodAck is a baseline AckEvent that violates nothing; each rule's case
// perturbs exactly one aspect of it.
func goodAck() core.AckEvent {
	return core.AckEvent{
		Key:        key(),
		PrevSndUna: 100, PrevSndNxt: 200, SndUna: 150, SndNxt: 200,
		HaveFeedback: true, CreditedTotal: 1000, CreditedMarked: 400,
		Alpha: 0.5, AlphaUpdated: true, AlphaFrac: 0.4,
		CwndBytes: 20000, MinRwnd: 8960, WScale: 7, WScaleKnown: true,
		Enforce: true, Enforced: 20000,
		OrigWnd: 500, NewWnd: 156, Overwrote: true,
	}
}

func tcpPkt(wnd uint16, ecn packet.ECN, payload int) *packet.Packet {
	return packet.Build(packet.MakeAddr(10, 0, 0, 2), packet.MakeAddr(10, 0, 0, 1),
		ecn, packet.TCPFields{
			SrcPort: 2000, DstPort: 1000, Seq: 1, Ack: 1,
			Flags: packet.FlagACK, Window: wnd,
		}, payload)
}

// TestSelfTestCorpus seeds one deliberate violation of every rule and checks
// that the auditor catches each one — and nothing else.
func TestSelfTestCorpus(t *testing.T) {
	cases := []struct {
		rule   Rule
		inject func(v *core.VSwitch, a *Auditor)
	}{
		{RuleRwndWidened, func(v *core.VSwitch, a *Auditor) {
			// Ingress ACK whose window field grew across the traversal.
			p := tcpPkt(200, packet.NotECT, 0)
			pre := v.CapturePre(p)
			pre.Wnd = 100
			a.PacketEvent(v, core.AuditIngress, pre, p, nil, true)
		}},
		{RuleRwndExceeds, func(v *core.VSwitch, a *Auditor) {
			// Enforcement wrote a field that descales far beyond the window.
			e := goodAck()
			e.NewWnd = 400 // 400<<7 = 51200 > enforced 20000
			a.AckEvent(v, e)
		}},
		{RuleECTMissing, func(v *core.VSwitch, a *Auditor) {
			// Egress data segment left without an ECN-capable codepoint.
			p := tcpPkt(500, packet.NotECT, 1000)
			pre := v.CapturePre(p)
			a.PacketEvent(v, core.AuditEgress, pre, p, nil, true)
		}},
		{RuleCELeaked, func(v *core.VSwitch, a *Auditor) {
			// CE made it through to the guest despite StripECN.
			p := tcpPkt(500, packet.CE, 1000)
			pre := v.CapturePre(p)
			a.PacketEvent(v, core.AuditIngress, pre, p, nil, true)
		}},
		{RuleFeedbackCred, func(v *core.VSwitch, a *Auditor) {
			// Credited more marked bytes than delivered bytes.
			e := goodAck()
			e.CreditedMarked = e.CreditedTotal + 1
			a.AckEvent(v, e)
		}},
		{RuleAlphaRange, func(v *core.VSwitch, a *Auditor) {
			e := goodAck()
			e.Alpha = 1.5
			a.AckEvent(v, e)
		}},
		{RuleCutFactor, func(v *core.VSwitch, a *Auditor) {
			// The β>1 bug mechanism: factor above 1 grows the window on
			// congestion.
			a.CutEvent(v, core.CutEvent{
				Key: key(), Alg: "dctcp", Alpha: 0.5, Beta: 3,
				Factor: 1.25, PrevCwnd: 20000, NewCwnd: 25000,
			})
		}},
		{RuleVCwndRange, func(v *core.VSwitch, a *Auditor) {
			e := goodAck()
			e.CwndBytes = float64(e.MinRwnd) / 2
			a.AckEvent(v, e)
		}},
		{RuleSeqOrder, func(v *core.VSwitch, a *Auditor) {
			e := goodAck()
			e.SndUna = e.PrevSndUna - 1 // snd_una regressed
			a.AckEvent(v, e)
		}},
		{RulePoliceWindow, func(v *core.VSwitch, a *Auditor) {
			// Dropped a segment that fit the enforced window plus slack.
			a.PoliceEvent(v, core.PoliceEvent{
				Key: key(), SegEnd: 15000, SndUna: 0,
				Enforced: 20000, Slack: 2000, Dropped: true,
			})
		}},
		{RuleResyncRewrite, func(v *core.VSwitch, a *Auditor) {
			e := goodAck()
			e.Resyncing = true // conservative mode must not rewrite
			a.AckEvent(v, e)
		}},
	}
	for _, tc := range cases {
		t.Run(string(tc.rule), func(t *testing.T) {
			captureLog(t)
			v, a := auditVSwitch(t, Config{})
			tc.inject(v, a)
			if got := a.Count(tc.rule); got != 1 {
				t.Fatalf("rule %s: violations = %d, want 1 (all: %v)",
					tc.rule, got, a.Violations())
			}
			if a.Total() != 1 {
				t.Fatalf("rule %s tripped other rules too: %v", tc.rule, a.Violations())
			}
			vio := a.Violations()
			if len(vio) != 1 || !strings.Contains(vio[0], string(tc.rule)) {
				t.Fatalf("violation log %v does not name rule %s", vio, tc.rule)
			}
			// The lazy counter must have joined the registry under the
			// audit_violations_total{rule=...} name.
			name := "audit_violations_total{rule=" + string(tc.rule) + "}"
			if got := v.Metrics.Snapshot().Counters[name]; got != 1 {
				t.Fatalf("registry counter %s = %d, want 1", name, got)
			}
		})
	}
}

// TestCleanEventsNoViolations runs the baseline event through every hook and
// expects silence — and, because the counters are lazy, a registry with no
// audit_* names at all.
func TestCleanEventsNoViolations(t *testing.T) {
	v, a := auditVSwitch(t, Config{})
	a.AckEvent(v, goodAck())
	a.CutEvent(v, core.CutEvent{
		Key: key(), Alg: "dctcp", Alpha: 0.5, Beta: 1,
		Factor: 0.75, PrevCwnd: 20000, NewCwnd: 15000,
	})
	a.PoliceEvent(v, core.PoliceEvent{
		Key: key(), SegEnd: 30000, SndUna: 0,
		Enforced: 20000, Slack: 2000, Dropped: true,
	})
	p := tcpPkt(100, packet.ECT0, 1000)
	a.PacketEvent(v, core.AuditEgress, v.CapturePre(p), p, nil, true)
	q := tcpPkt(100, packet.NotECT, 0)
	a.PacketEvent(v, core.AuditIngress, v.CapturePre(q), q, nil, true)
	if a.Total() != 0 {
		t.Fatalf("clean events produced violations: %v", a.Violations())
	}
	for name := range v.Metrics.Registry().Snapshot().Counters {
		if strings.HasPrefix(name, "audit_") {
			t.Fatalf("clean run registered audit counter %s", name)
		}
	}
}

// TestFailOpenWaivesPacketRules: a traversal that took a fail-open path (the
// fail_open_total counter moved) legitimately passes packets untouched, so
// packet invariants must not fire.
func TestFailOpenWaivesPacketRules(t *testing.T) {
	v, a := auditVSwitch(t, Config{Panic: true})
	p := tcpPkt(500, packet.CE, 1000) // CE toward the guest...
	pre := v.CapturePre(p)
	v.Metrics.FailOpen.Inc() // ...but the traversal failed open
	a.PacketEvent(v, core.AuditIngress, pre, p, nil, true)
}

// TestNonAuditablePacketsIgnored: packets the datapath itself would fail open
// on (non-TCP, malformed) carry Auditable=false and are exempt.
func TestNonAuditablePacketsIgnored(t *testing.T) {
	v, a := auditVSwitch(t, Config{Panic: true})
	a.PacketEvent(v, core.AuditIngress, core.PacketPre{}, tcpPkt(1, packet.CE, 0), nil, true)
}

// TestPanicMode: with Panic set the first violation panics with a message
// naming the rule.
func TestPanicMode(t *testing.T) {
	v, a := auditVSwitch(t, Config{Panic: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, string(RuleAlphaRange)) {
			t.Fatalf("panic %v does not name the rule", r)
		}
	}()
	e := goodAck()
	e.Alpha = -0.1
	a.AckEvent(v, e)
}

// TestMaxLogBounds: counting continues past MaxLog but logging stops.
func TestMaxLogBounds(t *testing.T) {
	logged := captureLog(t)
	v, a := auditVSwitch(t, Config{MaxLog: 2})
	e := goodAck()
	e.Alpha = 2
	for i := 0; i < 5; i++ {
		a.AckEvent(v, e)
	}
	if a.Count(RuleAlphaRange) != 5 {
		t.Fatalf("count = %d, want 5", a.Count(RuleAlphaRange))
	}
	if n := strings.Count(logged.String(), "\n"); n != 2 || len(a.Violations()) != 2 {
		t.Fatalf("logged %d lines, %d kept; want 2 each", n, len(a.Violations()))
	}
}

// TestNilRegistry: an auditor over a metrics-disabled vSwitch still counts
// in its own atomics.
func TestNilRegistry(t *testing.T) {
	captureLog(t)
	a := New((*metrics.Registry)(nil), Config{})
	a.CutEvent(nil, core.CutEvent{Key: key(), Alg: "dctcp", Factor: 1.5})
	if a.Count(RuleCutFactor) != 1 {
		t.Fatalf("count = %d, want 1", a.Count(RuleCutFactor))
	}
}

// TestSamplingChecksSubsetOfPacketEvents pins the 1-in-N budget: with
// Sample=4, only a quarter of violating ACK events are counted.
func TestSamplingChecksSubsetOfPacketEvents(t *testing.T) {
	v, a := auditVSwitch(t, Config{Sample: 4, MaxLog: 1})
	const n = 400
	for i := 0; i < n; i++ {
		e := goodAck()
		e.Alpha = 1.5 // violates RuleAlphaRange every time
		a.AckEvent(v, e)
	}
	got := a.Count(RuleAlphaRange)
	if got != n/4 {
		t.Fatalf("Sample=4 counted %d of %d violating events, want %d", got, n, n/4)
	}
}

// TestSamplingAlwaysChecksStateTransitions pins the safety property sampling
// must not cost: cut and policing events carry the hostile-β class of defect
// and are checked regardless of Sample.
func TestSamplingAlwaysChecksStateTransitions(t *testing.T) {
	v, a := auditVSwitch(t, Config{Sample: 1 << 20, MaxLog: 1})
	const n = 50
	for i := 0; i < n; i++ {
		a.CutEvent(v, core.CutEvent{
			Key: key(), Alg: "dctcp", Alpha: 0.5, Beta: 3,
			Factor: 1.25, PrevCwnd: 20000, NewCwnd: 25000,
		})
		a.PoliceEvent(v, core.PoliceEvent{
			Key: key(), SegEnd: 15000, SndUna: 0,
			Enforced: 20000, Slack: 2000, Dropped: true,
		})
	}
	if got := a.Count(RuleCutFactor); got != n {
		t.Fatalf("cut events sampled away: %d of %d counted", got, n)
	}
	if got := a.Count(RulePoliceWindow); got != n {
		t.Fatalf("policing events sampled away: %d of %d counted", got, n)
	}
}
