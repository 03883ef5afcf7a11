package core

import (
	"acdc/internal/packet"
)

// processFeedbackAndAck is the sender module's per-ACK work (Figure 5):
// extract CC info, update connection tracking, update α once per RTT, react
// to congestion/loss at most once per window, otherwise grow, then enforce
// the resulting window by rewriting RWND.
func (v *VSwitch) processFeedbackAndAck(f *Flow, p *packet.Packet, t packet.TCP, info packet.PACKInfo, haveFeedback bool) {
	b := f.sender()
	f.lastActive = v.Sim.Now()
	if !b.issValid {
		// We never saw our guest send on this flow; nothing to enforce yet.
		// (False in the shared defaults: the writes below own their block.)
		return
	}
	audit := v.Audit
	var ev AckEvent
	if audit != nil {
		ev.Key = f.Key
		ev.PrevSndUna, ev.PrevSndNxt = b.SndUna, b.SndNxt
		ev.HaveFeedback = haveFeedback
	}

	now := v.Sim.Now()
	var totalDelta, markedDelta uint32
	if haveFeedback {
		totalDelta, markedDelta, _ = v.creditFeedbackLocked(f, info)
		b.lastFeedbackAt = now
		if b.cold != nil {
			b.cold.fbStaleMark = 0
		}
	}

	// Feedback staleness: the peer's receiver module had been reporting but
	// has gone quiet for a virtual timeout (PACK stripped by a middlebox,
	// FACKs lost). The CE signal is gone, so growth on these blind ACKs
	// would open the window into a possibly congested fabric — freeze it and
	// let the vtimeout/loss machinery handle anything worse. Flows that
	// never saw feedback (one-sided, baseline, non-AC/DC peer) are exempt:
	// for them growth on plain ACKs is the normal mode.
	fbStale := !haveFeedback && b.lastFeedbackAt > 0 &&
		now-b.lastFeedbackAt > v.Cfg.VTimeout
	if fbStale && now-f.readCold().fbStaleMark > v.Cfg.VTimeout {
		f.writeCold().fbStaleMark = now
		v.Metrics.FeedbackTimeouts.Inc()
	}

	absAck := f.absSeq(t.Ack(), b.SndUna)
	if absAck > b.SndNxt {
		absAck = b.SndNxt
	}
	acked := absAck - b.SndUna

	loss := false
	switch {
	case acked > 0:
		b.SndUna = absAck
		b.DupAcks = 0
		if b.vtArmed {
			if b.SndUna < b.SndNxt {
				v.armVTimeout(f)
			} else {
				v.vtimeouts.Stop(f)
			}
		}
	case acked == 0 && p.PayloadLen() == 0 && b.SndNxt > b.SndUna &&
		t.Flags()&(packet.FlagSYN|packet.FlagFIN) == 0 &&
		b.lastWndSeen && t.Window() == b.lastWndRaw:
		// A duplicate ACK per RFC 5681 also requires an unchanged window
		// field: a pure window update (the receiver opening or closing its
		// buffer) is not evidence of loss, and a burst of them must not fake
		// a triple-dupack, pin α to max_alpha, and collapse the virtual
		// window.
		b.DupAcks++
		if b.DupAcks == 3 {
			loss = true
			f.writeCold().lossEvents++
		}
	}
	b.lastAckWire = t.Seq()
	b.lastWndRaw, b.lastWndSeen = t.Window(), true

	// One transition of the resync machine per feedback-carrying ACK
	// (resync.go): first feedback re-anchors, a later feedback ACK covering
	// resyncSeq completes the clean round and re-enables enforcement below.
	v.resyncAdvanceLocked(f, haveFeedback, absAck)

	// A Policy.Disable flow is observation-mode regardless of Cfg.EnforceRwnd:
	// the guest is not bound by the virtual window, so the overshoot gate must
	// not freeze growth (and the rewrite below is skipped entirely).
	enforcing := v.Cfg.EnforceRwnd && !f.Policy.Disable
	alphaFrac, alphaUpdated := v.reactLocked(f, absAck, acked, markedDelta, loss, enforcing, fbStale)

	// --- enforcement (§3.3) ---
	// A resyncing flow stays in conservative mode: the guest keeps its own
	// advertised window untouched until the clean feedback round completes.
	enforced := f.enforcedWindow(v.minRwnd(f))
	overwrote := false
	origWnd := t.Window()
	if enforcing && b.resync == resyncNone {
		// Overwrite the receive-window field with the enforced window under
		// the peer's scale, never widening it.
		if field := f.windowField(enforced); field < origWnd {
			t.SetWindow(field)
			v.Metrics.RwndRewrites.Inc()
			overwrote = true
		} else {
			v.Metrics.RwndUnchanged.Inc()
		}
	}
	if audit != nil {
		ev.AlphaUpdated, ev.AlphaFrac = alphaUpdated, alphaFrac
		ev.SndUna, ev.SndNxt = b.SndUna, b.SndNxt
		ev.CreditedTotal, ev.CreditedMarked = totalDelta, markedDelta
		ev.Alpha = b.Alpha
		ev.CwndBytes = b.CwndBytes
		ev.MinRwnd = v.minRwnd(f)
		ev.WScale, ev.WScaleKnown = b.PeerWScale, b.WScaleKnown
		ev.Resyncing = b.resync != resyncNone
		ev.Enforce = enforcing
		ev.Enforced = enforced
		ev.OrigWnd, ev.NewWnd = origWnd, t.Window()
		ev.Overwrote = overwrote
		audit.AckEvent(v, ev)
	}
	if v.OnRwndComputed != nil {
		v.OnRwndComputed(f, enforced, overwrote)
	}
}

// creditFeedbackLocked folds one report of the peer's cumulative counters into
// the α window and re-baselines on it. It returns the deltas credited, and
// reset when the counters went backwards: the peer's vSwitch restarted
// mid-flow and its receiver module counts from zero again. A reset credits
// nothing instead of a wrapped ~4GB window of phantom bytes.
func (v *VSwitch) creditFeedbackLocked(f *Flow, info packet.PACKInfo) (totalDelta, markedDelta uint32, reset bool) {
	// The first feedback after a mid-stream adoption or snapshot restore only
	// re-baselines: the peer's counters are unanchored relative to our state,
	// and crediting a delta would smear stale history into α.
	if f.resync != resyncAwaitFeedback {
		totalDelta = info.TotalBytes - f.lastTotal
		markedDelta = info.MarkedBytes - f.lastMarked
		if totalDelta >= 1<<31 || markedDelta >= 1<<31 {
			totalDelta, markedDelta, reset = 0, 0, true
			v.Metrics.FeedbackResets.Inc()
		}
		// A report cannot have marked more bytes than it delivered; corrupt
		// feedback (fuzzed PACK payloads) is clamped here so windowMarked can
		// never exceed windowTotal.
		markedDelta = min(markedDelta, totalDelta)
		f.windowTotal += totalDelta
		f.windowMarked += markedDelta
	}
	f.lastTotal, f.lastMarked = info.TotalBytes, info.MarkedBytes
	return totalDelta, markedDelta, reset
}

// reactLocked is Figure 5 on credited feedback whose ack point is absAck and
// which newly covers acked bytes. α is updated roughly once per RTT, when
// absAck passes the snapshot of snd_nxt taken at the previous update; then a
// loss pins α to max_alpha and cuts, CE-marked bytes cut, and otherwise the
// window grows if the flow earned it. It returns the α sample it took, for
// the audit.
func (v *VSwitch) reactLocked(f *Flow, absAck, acked int64, markedDelta uint32, loss, enforcing, stale bool) (frac float64, updated bool) {
	if absAck >= f.alphaSeq {
		if f.windowTotal > 0 {
			frac = float64(f.windowMarked) / float64(f.windowTotal)
			if frac > 1 { // corrupt feedback: marked can't exceed total
				frac = 1
			}
		}
		f.Alpha = (1-alphaGain)*f.Alpha + alphaGain*frac
		updated = true
		f.windowTotal, f.windowMarked = 0, 0
		f.alphaSeq = f.SndNxt
		// Per-RTT distribution samples: the operator's view of where the
		// fleet's virtual windows and congestion estimates sit.
		h := v.Metrics.hists[f.vcc]
		h.cwnd.Observe(f.CwndBytes)
		h.alpha.Observe(f.Alpha)
	}

	// Cwnd validation: growth is earned only when the guest actually pressed
	// against the enforced window since the previous ACK (windowLimited). The
	// peak inflight since the previous ACK is the gauge — the instantaneous
	// value is zero whenever a delayed ACK covers everything outstanding.
	// Stale feedback freezes growth; it never coincides with fresh CE marks.
	grow := acked > 0 && windowLimited(f, enforcing, f.maxInflight) && !stale
	f.maxInflight = f.SndNxt - f.SndUna

	switch {
	case loss:
		// Figure 5: Loss? yes → α = max_alpha, then cut.
		f.Alpha = maxAlpha
		v.cutWindow(f, absAck, true)
	case markedDelta > 0:
		// Figure 5's "ECN feedback?": any CE-marked byte is congestion.
		v.cutWindow(f, absAck, false)
		if grow {
			// DCTCP still grows between cuts within the window guard.
			renoGrowBytes(f, acked)
		}
	case grow:
		renoGrowBytes(f, acked)
	}
	v.clampFlow(f)
	return frac, updated
}

// cutWindow applies the multiplicative decrease at most once per window
// (Figure 5's "cut wnd in this window before?" guard).
func (v *VSwitch) cutWindow(f *Flow, absAck int64, loss bool) {
	if absAck < f.cutSeq && !v.Cfg.CutEveryAck {
		return // already cut in this window
	}
	f.prevCwndBytes = f.CwndBytes
	factor := f.vcc.cut(f)
	f.CwndBytes *= factor
	f.SsthreshBytes = f.CwndBytes
	f.cutSeq = f.SndNxt
	v.clampFlow(f)
	if a := v.Audit; a != nil {
		a.CutEvent(v, CutEvent{Key: f.Key, Alg: f.vcc.String(), Loss: loss,
			Alpha: f.Alpha, Beta: f.Policy.Beta, Factor: factor,
			PrevCwnd: f.prevCwndBytes, NewCwnd: f.CwndBytes})
	}
}

// windowLimited reports whether growth is earned: the guest actually used the
// window (otherwise an uncongested or guest-limited flow would inflate the
// virtual window arbitrarily, defeating both tracking and policing) and is
// not overshooting it (right after a cut the guest still has the old window
// in flight; crediting that as growth would lift the equilibrium above the
// window the algorithm chose). The overshoot half only applies while
// enforcement is on: in observation mode the guest is not bound by the
// virtual window, and tracking requires growth to follow it upward.
func windowLimited(f *Flow, enforcing bool, maxInflight int64) bool {
	limited := float64(maxInflight) >= f.CwndBytes-float64(f.MSS)
	if enforcing {
		limited = limited && float64(maxInflight) <= f.CwndBytes+float64(f.MSS)
	}
	return limited
}

// windowField is the RWND field that advertises enforced bytes under the
// peer's window scale, clamped to what the field can carry: rewritten ACKs
// and vSwitch-synthesized ones advertise the same value.
func (f *Flow) windowField(enforced int64) uint16 {
	field := enforced >> f.PeerWScale
	if field == 0 {
		field = 1
	}
	if field > 65535 {
		field = 65535
	}
	return uint16(field)
}

// clampFlow floors the virtual window (β=0 flows are bounded by one MSS to
// avoid starvation; the default floor is also one MSS unless configured) and
// caps it at the largest value the RWND field can express under the peer's
// window scale — anything above that is unenforceable anyway.
func (v *VSwitch) clampFlow(f *Flow) {
	minW := float64(v.minRwnd(f))
	if f.CwndBytes < minW {
		f.CwndBytes = minW
	}
	if f.WScaleKnown {
		if maxW := float64(int64(65535) << f.PeerWScale); f.CwndBytes > maxW {
			f.CwndBytes = maxW
		}
	}
	// Unlike host stacks (2-packet floors), the virtual window is byte-
	// granular: ssthresh only needs to stay positive. This is what lets
	// AC/DC undercut host DCTCP's queue in deep incast (§5.2).
	if f.SsthreshBytes < float64(f.MSS) {
		f.SsthreshBytes = float64(f.MSS)
	}
}

// onVTimeout fires when a flow's inactivity timer expires with data
// outstanding: infer a guest timeout (§3.1), collapse the virtual window,
// and optionally synthesize duplicate ACKs so a guest with a long RTO
// retransmits promptly (§3.3).
func (v *VSwitch) onVTimeout(f *Flow) {
	// Membership guard: a restart clears the table without stopping per-flow
	// timers (resetTable), so an orphaned flow's timer still fires once; it
	// must neither count a timeout nor re-arm.
	if v.Table.Get(f.Key) != f || f.SndUna >= f.SndNxt {
		return
	}
	v.collapseLocked(f)
	f.cutSeq = f.SndNxt
	var dup *packet.Packet
	if v.Cfg.GenDupAcks && f.issValid {
		dup = v.buildDupAckLocked(f)
	}
	v.armVTimeout(f)

	if dup != nil {
		// Three dup ACKs, but only two clones: the third delivery hands the
		// original over (the guest side owns delivered packets).
		for i := 0; i < 2; i++ {
			v.Metrics.DupAcksGenerated.Inc()
			v.Host.DeliverLocal(v.pool().Clone(dup))
		}
		v.Metrics.DupAcksGenerated.Inc()
		v.Host.DeliverLocal(dup)
	}
}

// collapseLocked is Figure 5's inactivity timeout: count it, pin α to
// max_alpha, halve ssthresh (to two MSS at least) and restart from one MSS.
func (v *VSwitch) collapseLocked(f *Flow) {
	v.Metrics.VTimeouts.Inc()
	f.writeCold().vTimeouts++
	f.Alpha = maxAlpha
	f.SsthreshBytes = max(f.CwndBytes/2, float64(2*f.MSS))
	f.CwndBytes = float64(f.MSS)
	v.clampFlow(f)
}

// buildDupAckLocked crafts a duplicate ACK toward the guest for the flow's
// current snd_una, using header fields remembered from the last real ACK.
func (v *VSwitch) buildDupAckLocked(f *Flow) *packet.Packet {
	return packet.BuildIn(v.pool(), f.Key.Dst, f.Key.Src, packet.NotECT, packet.TCPFields{
		SrcPort: f.Key.DPort, DstPort: f.Key.SPort,
		Seq: f.lastAckWire, Ack: f.iss + uint32(f.SndUna),
		Flags: packet.FlagACK, Window: f.windowField(f.enforcedWindow(v.minRwnd(f))),
	}, 0)
}
