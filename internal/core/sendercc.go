package core

import (
	"acdc/internal/packet"
)

// processFeedbackAndAck is the sender module's per-ACK work (Figure 5):
// extract CC info, update connection tracking, update α once per RTT, react
// to congestion/loss at most once per window, otherwise grow, then enforce
// the resulting window by rewriting RWND.
func (v *VSwitch) processFeedbackAndAck(f *Flow, p *packet.Packet, t packet.TCP, info packet.PACKInfo, haveFeedback bool) {
	enforced, overwrote, ok := v.processAckLocked(f, p, t, info, haveFeedback)
	// The observation hook runs outside the flow lock so it may call
	// Snapshot or walk the table.
	if ok && v.OnRwndComputed != nil {
		v.OnRwndComputed(f, enforced, overwrote)
	}
}

func (v *VSwitch) processAckLocked(f *Flow, p *packet.Packet, t packet.TCP, info packet.PACKInfo, haveFeedback bool) (enforcedOut int64, overwroteOut, okOut bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lastActive = v.Sim.Now()
	if !f.issValid {
		// We never saw our guest send on this flow; nothing to enforce yet.
		return 0, false, false
	}
	audit := v.Audit
	var ev AckEvent
	if audit != nil {
		ev.Key = f.Key
		ev.PrevSndUna, ev.PrevSndNxt = f.SndUna, f.SndNxt
		ev.HaveFeedback = haveFeedback
	}

	// Feedback deltas (cumulative counters; uint32 wraparound-safe).
	now := v.Sim.Now()
	var totalDelta, markedDelta uint32
	if haveFeedback {
		if f.resync == resyncAwaitFeedback {
			// First feedback after a mid-stream adoption or snapshot
			// restore: the peer's cumulative counters are unanchored
			// relative to our state, so this packet only re-baselines —
			// crediting a delta here would smear stale history into α.
		} else {
			totalDelta = info.TotalBytes - f.lastTotal
			markedDelta = info.MarkedBytes - f.lastMarked
			if totalDelta >= 1<<31 || markedDelta >= 1<<31 {
				// The cumulative counters went backwards: the peer's
				// vSwitch restarted mid-flow (its receiver module restarted
				// counting from zero). Re-baseline with no delta instead of
				// crediting a wrapped ~4GB window of phantom bytes.
				totalDelta, markedDelta = 0, 0
				v.Metrics.FeedbackResets.Inc()
			}
			if markedDelta > totalDelta {
				// A report cannot have marked more bytes than it delivered;
				// corrupt feedback (fuzzed PACK payloads) is clamped here so
				// windowMarked can never exceed windowTotal.
				markedDelta = totalDelta
			}
			f.windowTotal += totalDelta
			f.windowMarked += markedDelta
		}
		f.lastTotal = info.TotalBytes
		f.lastMarked = info.MarkedBytes
		f.lastFeedbackAt = now
		f.fbStaleMark = 0
	}

	// Feedback staleness: the peer's receiver module had been reporting but
	// has gone quiet for a virtual timeout (PACK stripped by a middlebox,
	// FACKs lost). The CE signal is gone, so growth on these blind ACKs
	// would open the window into a possibly congested fabric — freeze it and
	// let the vtimeout/loss machinery handle anything worse. Flows that
	// never saw feedback (one-sided, baseline, non-AC/DC peer) are exempt:
	// for them growth on plain ACKs is the normal mode.
	fbStale := !haveFeedback && f.lastFeedbackAt > 0 &&
		now-f.lastFeedbackAt > v.Cfg.VTimeout
	if fbStale && now-f.fbStaleMark > v.Cfg.VTimeout {
		f.fbStaleMark = now
		v.Metrics.FeedbackTimeouts.Inc()
	}

	absAck := f.absSeq(t.Ack(), f.SndUna)
	if absAck > f.SndNxt {
		absAck = f.SndNxt
	}
	acked := absAck - f.SndUna

	loss := false
	switch {
	case acked > 0:
		f.SndUna = absAck
		f.DupAcks = 0
		if f.inactivity != nil {
			if f.SndUna < f.SndNxt {
				f.inactivity.Reset(v.Cfg.VTimeout)
			} else {
				f.inactivity.Stop()
			}
		}
	case acked == 0 && p.PayloadLen() == 0 && f.SndNxt > f.SndUna &&
		t.Flags()&(packet.FlagSYN|packet.FlagFIN) == 0 &&
		f.lastWndSeen && t.Window() == f.lastWndRaw:
		// A duplicate ACK per RFC 5681 also requires an unchanged window
		// field: a pure window update (the receiver opening or closing its
		// buffer) is not evidence of loss, and a burst of them must not fake
		// a triple-dupack, pin α to max_alpha, and collapse the virtual
		// window.
		f.DupAcks++
		if f.DupAcks == 3 {
			loss = true
			f.LossEvents++
		}
	}
	f.lastAckWire = t.Seq()
	f.lastWndRaw, f.lastWndSeen = t.Window(), true

	// One transition of the resync machine per feedback-carrying ACK
	// (resync.go): first feedback re-anchors, a later feedback ACK covering
	// resyncSeq completes the clean round and re-enables enforcement below.
	v.resyncAdvanceLocked(f, haveFeedback, absAck)

	// α update, roughly once per RTT (when the ACK passes the snapshot of
	// snd_nxt taken at the previous update).
	if absAck >= f.alphaSeq {
		var frac float64
		if f.windowTotal > 0 {
			frac = float64(f.windowMarked) / float64(f.windowTotal)
			if frac > 1 { // corrupt feedback: marked can't exceed total
				frac = 1
			}
		}
		f.Alpha = (1-v.Cfg.G)*f.Alpha + v.Cfg.G*frac
		if audit != nil {
			ev.AlphaUpdated, ev.AlphaFrac = true, frac
		}
		f.windowTotal, f.windowMarked = 0, 0
		f.alphaSeq = f.backend().RoundAnchor(v, f, absAck)
		// Per-RTT distribution samples: the operator's view of where the
		// fleet's virtual windows and congestion estimates sit.
		h := v.Metrics.hists[f.vcc]
		h.cwnd.Observe(f.CwndBytes)
		h.alpha.Observe(f.Alpha)
	}

	// Cwnd validation: the backend judges whether the guest actually
	// pressed against the enforcement since the previous ACK, so growth is
	// earned rather than free (backend.go WindowLimited — the rewriting
	// backends compare peak inflight against the virtual window, the pacer
	// asks its token bucket). The peak inflight since the previous ACK is
	// the gauge — the instantaneous value is zero whenever a delayed ACK
	// covers everything outstanding.
	// A Policy.Disable flow is observation-mode regardless of Cfg.EnforceRwnd:
	// the guest is not bound by the virtual window, so the overshoot gate must
	// not freeze growth (and the rewrite below is skipped entirely).
	enforcing := v.Cfg.EnforceRwnd && !f.Policy.Disable
	cwndLimited := f.backend().WindowLimited(v, f, enforcing, f.maxInflight)
	f.maxInflight = f.SndNxt - f.SndUna

	// The enforcement backend owns the congestion decision: dctcp-cut and
	// pace react to any marked byte (Figure 5); adaptive-k gates the
	// reaction behind its load-adaptive threshold K (backend.go).
	congested := f.backend().Congested(v, f, totalDelta, markedDelta)
	if loss && !f.backend().LossIsFabric(v, f) {
		// Dupacks provoked by the backend's own throttling (a pacer
		// queue-bound drop): the guest's loss recovery is the response;
		// the fabric said nothing, so the virtual window says nothing.
		loss = false
	}
	switch {
	case loss:
		// Figure 5: Loss? yes → α = max_alpha, then cut.
		f.Alpha = v.Cfg.MaxAlpha
		v.cutWindow(f, absAck, true)
	case congested:
		v.cutWindow(f, absAck, false)
		if acked > 0 && cwndLimited {
			// DCTCP still grows between cuts within the window guard.
			f.law().OnAck(f, acked)
		}
	case acked > 0 && cwndLimited && !fbStale:
		f.law().OnAck(f, acked)
	}
	v.clampFlow(f)

	// --- enforcement (§3.3) ---
	// A resyncing flow stays in conservative mode: the guest keeps its own
	// advertised window untouched until the clean feedback round completes.
	enforced := f.enforcedWindow(v.minRwnd(f))
	overwrote := false
	origWnd := t.Window()
	if enforcing && f.resync == resyncNone {
		// The backend imposes the window its own way: dctcp-cut (and
		// adaptive-k) rewrite the RWND field; pace refreshes its token-
		// bucket rate and leaves the ACK untouched.
		overwrote = f.backend().OnAck(v, f, t, enforced, fbStale)
	}
	if audit != nil {
		ev.SndUna, ev.SndNxt = f.SndUna, f.SndNxt
		ev.CreditedTotal, ev.CreditedMarked = totalDelta, markedDelta
		ev.Alpha = f.Alpha
		ev.CwndBytes = f.CwndBytes
		ev.MinRwnd = v.minRwnd(f)
		ev.WScale, ev.WScaleKnown = f.PeerWScale, f.WScaleKnown
		ev.Resyncing = f.resync != resyncNone
		ev.Enforce = enforcing
		ev.Enforced = enforced
		ev.OrigWnd, ev.NewWnd = origWnd, t.Window()
		ev.Overwrote = overwrote
		audit.AckEvent(v, ev)
	}
	return enforced, overwrote, true
}

// cutWindow applies the multiplicative decrease at most once per window
// (Figure 5's "cut wnd in this window before?" guard).
func (v *VSwitch) cutWindow(f *Flow, absAck int64, loss bool) {
	if absAck < f.cutSeq && !v.Cfg.CutEveryAck {
		return // already cut in this window
	}
	f.prevCwndBytes = f.CwndBytes
	factor := f.law().CutFactor(f, loss)
	f.CwndBytes *= factor
	f.SsthreshBytes = f.CwndBytes
	f.cutSeq = f.backend().RoundAnchor(v, f, absAck)
	v.clampFlow(f)
	if a := v.Audit; a != nil {
		a.CutEvent(v, CutEvent{Key: f.Key, Alg: f.law().Name(), Loss: loss,
			Alpha: f.Alpha, Beta: f.Policy.Beta, Factor: factor,
			PrevCwnd: f.prevCwndBytes, NewCwnd: f.CwndBytes})
	}
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
	// Membership guard: a warm restart under live traffic clears the table
	// without stopping per-flow timers (resetTable cannot touch the
	// simulator from a control-plane goroutine). An orphaned flow's timer
	// still fires once; it must neither count a timeout nor re-arm.
	if v.Table.Get(f.Key) != f {
		return
	}
	f.mu.Lock()
	if f.SndUna >= f.SndNxt {
		f.mu.Unlock()
		return
	}
	v.Metrics.VTimeouts.Inc()
	f.VTimeouts++
	f.Alpha = v.Cfg.MaxAlpha
	f.law().OnTimeout(f)
	v.clampFlow(f)
	f.cutSeq = f.SndNxt
	genDup := v.Cfg.GenDupAcks && f.issValid
	var dup *packet.Packet
	if genDup {
		dup = v.buildDupAckLocked(f)
	}
	f.inactivity.Reset(v.Cfg.VTimeout)
	f.mu.Unlock()

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

// buildDupAckLocked crafts a duplicate ACK toward the guest for the flow's
// current snd_una, using header fields remembered from the last real ACK.
// Caller holds f.mu.
func (v *VSwitch) buildDupAckLocked(f *Flow) *packet.Packet {
	enforced := f.enforcedWindow(v.minRwnd(f))
	field := enforced >> f.PeerWScale
	if field == 0 {
		field = 1
	}
	if field > 65535 {
		field = 65535
	}
	// The backend chooses the advertised window: rewrite backends use the
	// enforced field; pace echoes the guest's own last window instead.
	wnd := f.backend().DupAckWindow(v, f, uint16(field))
	return packet.BuildIn(v.pool(), f.Key.Dst, f.Key.Src, packet.NotECT, packet.TCPFields{
		SrcPort: f.Key.DPort, DstPort: f.Key.SPort,
		Seq: f.lastAckWire, Ack: f.iss + uint32(f.SndUna),
		Flags: packet.FlagACK, Window: wnd,
	}, 0)
}

// SendWindowUpdate synthesizes a TCP window-update ACK toward the local
// guest reflecting the flow's current enforced window (§3.3: "ACEDC can
// create these packets to update windows without relying on ACKs").
func (v *VSwitch) SendWindowUpdate(k FlowKey) bool {
	f := v.Table.Get(k)
	if f == nil {
		return false
	}
	f.mu.Lock()
	if !f.issValid {
		f.mu.Unlock()
		return false
	}
	upd := v.buildDupAckLocked(f)
	f.mu.Unlock()
	v.Host.DeliverLocal(upd)
	return true
}
