package core

// Enforcement backends — the pluggable mechanism layer of §3.3.
//
// AC/DC's claim is that congestion control can be *enforced in the middle*;
// the paper's Eq. 1 RWND cut is one mechanism, not the only one. The
// VirtualCC interface (vcc.go) is the congestion *law* — how the virtual
// window moves. A Backend is the enforcement *mechanism* — how the chosen
// window is imposed on the guest. The two compose per flow: any law can run
// under any backend.
//
// Three backends ship:
//
//   - "dctcp-cut" (default): the paper's mechanism, verbatim. ACKs toward
//     the guest have their receive-window field overwritten with the virtual
//     window (§3.3), and egress segments beyond the window are policed. This
//     implementation is the exact code the sender module ran before the
//     backend interface existed; with it selected, output is byte-identical
//     by construction (pinned by TestBackendDctcpCutGoldenIdentical).
//   - "pace": per-flow token-bucket pacing built on netsim.Shaper. The
//     virtual window is converted to a rate (enforced window / smoothed
//     virtual RTT) and egress data is released at that rate; the RWND field
//     is never touched. This is the switch-assisted throttling family
//     (Abdelmoniem & Bensaou, PAPERS.md) realized at the vSwitch.
//   - "adaptive-k": the dynamic-ECN-threshold controller (SDN-controller
//     style, PAPERS.md). Enforcement is the same RWND rewrite + policing as
//     dctcp-cut, but the congestion *decision* adapts: a window only counts
//     as congested once its CE-marked bytes cross a per-flow threshold K,
//     and K tracks measured load (α) — heavy marking halves K toward maximum
//     sensitivity, light marking grows it so stray marks stop costing cuts.
//
// Every Backend method runs under f.mu on the simulation goroutine, at the
// exact points the hardcoded enforcement used to occupy; backends are
// stateless singletons, with per-flow state in the lazily-allocated
// Flow.cold (so the default backend's zero-alloc profile is untouched).
//
// Unknown backend names never error mid-stream: Policy.Sanitized clamps them
// to the default and backend_unknown_total counts the clamp (see
// backendKnown callers). Parse surfaces (CLI flags, scenario specs) reject
// early through ParseBackend, with a near-miss suggestion.

import (
	"fmt"
	"strings"

	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// Backend is the enforcement mechanism run on behalf of a flow. All methods
// are called with f.mu held, from the datapath (simulation) goroutine.
type Backend interface {
	Name() string
	// Congested decides whether this ACK's feedback constitutes a
	// congestion signal for the virtual CC (Figure 5's "ECN feedback?"
	// branch). totalDelta/markedDelta are the bytes credited from this
	// ACK's PACK/FACK feedback (both 0 without feedback).
	Congested(v *VSwitch, f *Flow, totalDelta, markedDelta uint32) bool
	// OnAck enforces the flow's computed window on an ACK headed to the
	// guest. enforced is enforcedWindow (floor and clamp applied); fbStale
	// reports the feedback-staleness freeze (sendercc.go) — a backend that
	// derives a rate from the window must not raise it on blind ACKs.
	// Called only while enforcement is live (EnforceRwnd, not Disabled,
	// resync complete). Returns whether the RWND field was overwritten.
	OnAck(v *VSwitch, f *Flow, t packet.TCP, enforced int64, fbStale bool) bool
	// OnEgress admits one outgoing data segment (policing, pacing). Called
	// only for non-resyncing, non-Disabled flows, before connection
	// tracking advances. Returning true consumes the packet (dropped, or
	// retained by a pacer queue that has already advanced snd_nxt);
	// returning false passes it to the normal path.
	OnEgress(v *VSwitch, f *Flow, p *packet.Packet, segEnd, plen int64) bool
	// DupAckWindow chooses the window field for vSwitch-synthesized ACKs
	// (dupack generation, SendWindowUpdate). enforcedField is the descaled
	// enforced window the default mechanism would advertise.
	DupAckWindow(v *VSwitch, f *Flow, enforcedField uint16) uint16
	// WindowLimited is the cwnd-validation gauge (sendercc.go): whether the
	// guest actually pressed against this backend's enforcement since the
	// previous ACK, i.e. whether virtual-window growth is earned.
	// maxInflight is the peak guest inflight over that interval. A
	// rewriting backend compares inflight against the virtual window (using
	// it from below, not draining a pre-cut window from above); a pacing
	// backend cannot — the guest's inflight rides its own stack's window,
	// far above the virtual one — so it answers from its token bucket:
	// growth is earned only when the bucket ran dry since the last ACK.
	WindowLimited(v *VSwitch, f *Flow, enforcing bool, maxInflight int64) bool
	// RoundAnchor returns the absolute sequence the next once-per-window
	// event (α update, cut guard) waits for, given the ACK that completed
	// the current round. The law's cadence is "once per window of data";
	// a rewriting backend anchors at snd_nxt, which equals one window ahead
	// because the rewrite bounds inflight to the window. A pacing backend
	// must anchor at ack + one virtual window instead: its guest's inflight
	// (own stack window, pacer backlog, fabric queue) can dwarf the virtual
	// window, and snd_nxt anchoring would stretch rounds by that ratio —
	// cuts arrive late while per-round growth keeps compounding, so the
	// window plateaus at whatever overload the stretched cadence sustains.
	RoundAnchor(v *VSwitch, f *Flow, absAck int64) int64
	// LossIsFabric decides whether a triple-dupack loss event is evidence
	// of fabric loss (Figure 5: α = max_alpha, then cut) or an artifact of
	// the backend's own throttling. A pacer that dropped a segment within
	// the last feedback horizon attributes the dupacks to itself: the guest
	// stack's loss recovery is already the enforcement response, and
	// collapsing the virtual window too locks the flow at the floor (the
	// collapsed rate guarantees the next overshoot drop, which pins α at
	// max_alpha again — a self-sustaining starvation loop).
	LossIsFabric(v *VSwitch, f *Flow) bool
	// SaveState returns the backend's one per-flow scalar for snapshots
	// (pace: pacing rate in bit/s; adaptive-k: current K in bytes).
	SaveState(f *Flow) float64
	// RestoreState seeds the per-flow scalar from a restored snapshot.
	RestoreState(v *VSwitch, f *Flow, state float64)
}

// backendState is the per-flow state of the non-default backends, allocated
// lazily so dctcp-cut flows stay allocation-free.
type backendState struct {
	// pace: the per-flow token-bucket pacer and its virtual RTT estimate.
	// The Shaper is touched only from the simulation goroutine; a flow
	// evicted with packets still queued leaves them to drain onto the wire
	// at the last configured rate (they were already admitted by egress).
	sh         *netsim.Shaper
	srtt       sim.Duration
	probeEnd   int64    // abs seq whose cumulative ack completes the RTT probe (0 = unarmed)
	probeAt    sim.Time // wire-release time of the probe segment
	lastDropAt sim.Time // most recent pacer queue-bound drop (loss attribution)
	throttled  bool     // bucket ran dry since the last ACK (growth gauge)

	// adaptive-k: the dynamic congestion threshold.
	kBytes      int64 // current K; marked bytes in a window below K are tolerated
	kRoundSeq   int64 // f.alphaSeq at the last K adaptation (once per α round)
	kCutSeq     int64 // f.cutSeq at the last accumulator reset
	markedAccum int64 // CE-marked bytes since the last cut

	restored    float64 // snapshot scalar, consumed at first use
	hasRestored bool
}

// beState returns the flow's backend state, allocating the cold state on
// first use. Caller holds f.mu.
func (f *Flow) beState() *backendState { return &f.coldState().bes }

// backends is the registry: stateless singletons, named per flow by index
// (Flow.be). The zero index is the default mechanism.
var backends = [...]Backend{dctcpCutBackend{}, paceBackend{}, adaptiveKBackend{}}

// backendID indexes backends.
type backendID uint8

// backend returns the flow's enforcement backend.
func (f *Flow) backend() Backend { return backends[f.be] }

// BackendNames lists the selectable enforcement backends (stable order).
func BackendNames() []string { return []string{DefaultBackend, "pace", "adaptive-k"} }

// DefaultBackend is the backend an empty name resolves to: the paper's own
// enforcement mechanism.
const DefaultBackend = "dctcp-cut"

// backendKnown reports whether name resolves to a backend in this build
// ("" means the default dctcp-cut mechanism and is always known).
func backendKnown(name string) bool {
	_, ok := lookup(backends[:], name)
	return ok
}

// ParseBackend validates a backend name from a parse surface (a CLI -backend
// flag, a scenario spec). Unlike the runtime paths, a parse surface can say
// no: unknown names error out early, with a near-miss suggestion when the
// name looks like a typo. The empty string selects the default backend.
func ParseBackend(name string) (string, error) {
	if backendKnown(name) {
		return name, nil
	}
	all := strings.Join(BackendNames(), ", ")
	if s := faults.Nearest(name, BackendNames()); s != "" {
		return "", fmt.Errorf("unknown enforcement backend %q (did you mean %q? backends: %s)", name, s, all)
	}
	return "", fmt.Errorf("unknown enforcement backend %q (backends: %s)", name, all)
}

// ---------------------------------------------------------------------------
// dctcp-cut: the paper's mechanism (RWND rewrite + window policing).
// ---------------------------------------------------------------------------

type dctcpCutBackend struct{}

func (dctcpCutBackend) Name() string { return "dctcp-cut" }

// Congested implements Backend: any CE-marked byte in the feedback marks the
// window congested (Figure 5).
func (dctcpCutBackend) Congested(v *VSwitch, f *Flow, totalDelta, markedDelta uint32) bool {
	return markedDelta > 0
}

// OnAck implements Backend: overwrite the receive-window field with the
// enforced window under the peer's scale, never widening (§3.3).
func (dctcpCutBackend) OnAck(v *VSwitch, f *Flow, t packet.TCP, enforced int64, fbStale bool) bool {
	field := enforced >> f.PeerWScale
	if field == 0 {
		field = 1
	}
	if field > 65535 {
		field = 65535
	}
	if uint16(field) < t.Window() {
		t.SetWindow(uint16(field))
		v.Metrics.RwndRewrites.Inc()
		return true
	}
	v.Metrics.RwndUnchanged.Inc()
	return false
}

// OnEgress implements Backend: §3.3 policing — drop segments beyond the
// allowed window plus slack (the pre-cut window is still honored so a guest
// draining its old window is not punished for the cut).
func (dctcpCutBackend) OnEgress(v *VSwitch, f *Flow, p *packet.Packet, segEnd, plen int64) bool {
	if !v.Cfg.Police || plen <= 0 {
		return false
	}
	allowance := f.CwndBytes
	if f.prevCwndBytes > allowance {
		allowance = f.prevCwndBytes
	}
	slack := v.Cfg.PoliceSlackBytes
	if slack == 0 {
		slack = 2 * int64(f.MSS)
	}
	if segEnd-f.SndUna > int64(allowance)+slack {
		v.Metrics.PolicingDrops.Inc()
		if a := v.Audit; a != nil {
			a.PoliceEvent(v, PoliceEvent{Key: f.Key,
				SegEnd: segEnd, SndUna: f.SndUna,
				Enforced: f.enforcedWindow(v.minRwnd(f)), Slack: slack,
				Resyncing: f.resync != resyncNone, Dropped: true})
		}
		return true
	}
	return false
}

// DupAckWindow implements Backend: synthesized ACKs advertise the enforced
// window, exactly like rewritten real ACKs.
func (dctcpCutBackend) DupAckWindow(v *VSwitch, f *Flow, enforcedField uint16) uint16 {
	return enforcedField
}

// WindowLimited implements Backend: grow only while the flow actually uses
// the window (otherwise an uncongested or guest-limited flow would inflate
// the virtual window arbitrarily, defeating both tracking and policing) and
// is not overshooting it (right after a cut the guest still has the old
// window in flight; crediting that as growth would lift the equilibrium
// above the window the algorithm chose). The overshoot half only applies
// while enforcement is on: in observation mode the guest is not bound by
// the virtual window, and tracking requires growth to follow it upward.
func (dctcpCutBackend) WindowLimited(v *VSwitch, f *Flow, enforcing bool, maxInflight int64) bool {
	limited := float64(maxInflight) >= f.CwndBytes-float64(f.MSS)
	if enforcing {
		limited = limited && float64(maxInflight) <= f.CwndBytes+float64(f.MSS)
	}
	return limited
}

// RoundAnchor implements Backend: snd_nxt — with inflight bounded to the
// window by the rewrite, snd_nxt is one window ahead of the ack.
func (dctcpCutBackend) RoundAnchor(v *VSwitch, f *Flow, absAck int64) int64 {
	return f.SndNxt
}

// LossIsFabric implements Backend: the cut mechanism never consumes data
// segments itself (policing drops are window violations, which the slack
// already absolves), so dupacks mean the fabric lost something.
func (dctcpCutBackend) LossIsFabric(v *VSwitch, f *Flow) bool { return true }

// SaveState implements Backend: the cut mechanism has no per-flow state
// beyond what the flow record already carries.
func (dctcpCutBackend) SaveState(f *Flow) float64 { return 0 }

// RestoreState implements Backend.
func (dctcpCutBackend) RestoreState(v *VSwitch, f *Flow, state float64) {}

// ---------------------------------------------------------------------------
// pace: per-flow token-bucket pacing (no RWND rewrite).
// ---------------------------------------------------------------------------

const (
	// paceInitRTT seeds the virtual RTT estimate before the first measured
	// α round (≈ a few switch hops at datacenter latencies).
	paceInitRTT = 100 * sim.Microsecond
	// paceMinRTT floors RTT samples: a sub-5µs sample is a same-event
	// artifact. paceMaxRTT caps them (an idle gap inside a round is not
	// RTT) and is the drain horizon behind the rate floor — beyond 10ms
	// the guest's own RTO machinery owns the flow anyway.
	paceMinRTT = 5 * sim.Microsecond
	paceMaxRTT = 10 * sim.Millisecond
	// paceGain is the window→rate conversion gain (BBR's probe gain). It
	// must exceed 1, or the estimator deadlocks on its own throttle: at
	// exactly window/srtt the pacer clocks every round at srtt, every
	// sample confirms the estimate, and an overestimated seed never
	// corrects. With gain g a pacer-limited round takes srtt/g, so the
	// EWMA in OnAck decays geometrically until the fabric — not the
	// bucket — is what paces the flow; the marks → α → cut loop absorbs
	// the constant by holding the window g× lower at equilibrium.
	paceGain = 1.25
	// paceSrttWeight is the EWMA weight (new sample counts 1/weight).
	// 4 tracks queue buildup within a few rounds; the simulator's samples
	// are not noisy enough to need RFC 6298's 8.
	paceSrttWeight = 4
	// paceQueueDelay bounds the per-flow pacer backlog in *time* at the
	// current rate; beyond it the guest eats a drop and retransmits, like a
	// shallow-buffered NIC rate limiter. The bound must stay near the
	// fabric RTT, for two reasons: the backlog sits inside the CE feedback
	// loop (a deep queue delays the congestion signal past the point of
	// stability and the fleet sawtooths between an all-marked fabric and an
	// idle one), and it inflates guest inflight, which stretches the
	// sequence-anchored once-per-window cadence of α updates and cuts.
	paceQueueDelay = 200 * sim.Microsecond
	// paceQueueBytes caps the backlog bound from above, and
	// paceQueueMinMSS floors it: an initial-window burst (IW10) must queue
	// rather than drop, or every flow opens with a loss event.
	paceQueueBytes  = 256 << 10
	paceQueueMinMSS = 10
	// paceInitWindowMSS restarts the virtual window for the rate
	// conversion when the pacer first engages. The IW10 the rewriting
	// backends enforce is safe because ACK self-clocking spreads it over a
	// round trip; a token bucket turns window/RTT into an unclocked rate,
	// so a large initial window becomes a multi-gigabit blast before the
	// first feedback arrives — fatal in incast, where the fan-in multiplies
	// it. Pacing therefore re-earns its rate through slow start (the
	// throttled-gated growth doubles the window per round) from a couple of
	// segments, exactly like a fresh transport.
	paceInitWindowMSS = 2
	// paceBurstMSS sizes the token bucket (segments of headroom).
	paceBurstMSS = 2
	// paceMaxRate caps the converted rate so wait-time math never degrades
	// (1 Tb/s is "unshaped" for every fabric this simulator builds).
	paceMaxRate = int64(1e12)
)

type paceBackend struct{}

func (paceBackend) Name() string { return "pace" }

// Congested implements Backend: same CE sensitivity as the paper's
// mechanism — pace changes how the window is imposed, not when it moves.
func (paceBackend) Congested(v *VSwitch, f *Flow, totalDelta, markedDelta uint32) bool {
	return markedDelta > 0
}

// paceSink forwards pacer-released packets onto the wire. They already
// traversed the egress path (feedback/ECT handled at queue time), so they
// bypass the egress hook exactly like vSwitch-generated FACKs. Release is
// also where the RTT probe arms for queued segments: the clock starts when
// the segment actually hits the wire, so the sample excludes the flow's own
// pacer backlog (see paceArmProbeLocked).
type paceSink struct {
	v *VSwitch
	f *Flow
}

func (s paceSink) HandlePacket(p *packet.Packet) {
	s.v.Metrics.PaceReleased.Inc()
	s.f.mu.Lock()
	if c := s.f.cold; c != nil && c.bes.probeEnd == 0 {
		t := p.TCP()
		end := s.f.absSeq(t.Seq(), s.f.SndNxt) + int64(p.PayloadLen())
		paceArmProbeLocked(s.v, s.f, end)
	}
	s.f.mu.Unlock()
	s.v.Host.InjectToWire(p)
}

// paceArmProbeLocked starts a fabric-RTT probe on the segment ending at end:
// the sample completes when the cumulative ack covers it. One probe in
// flight at a time (Karn-style); caller holds f.mu at a wire-release point.
func paceArmProbeLocked(v *VSwitch, f *Flow, end int64) {
	bes := f.beState()
	if bes.probeEnd != 0 || end <= f.SndUna {
		return
	}
	bes.probeEnd = end
	bes.probeAt = v.Sim.Now()
}

// paceInitLocked builds the flow's pacer on first use. Caller holds f.mu.
func paceInitLocked(v *VSwitch, f *Flow) *backendState {
	bes := f.beState()
	if bes.sh == nil {
		bes.srtt = paceInitRTT
		// Slow-start ramp: drop the virtual window to a couple of segments
		// before converting it to a rate (see paceInitWindowMSS).
		if w := float64(paceInitWindowMSS * f.MSS); f.CwndBytes > w {
			f.CwndBytes = w
			if f.CwndBytes < float64(v.minRwnd(f)) {
				f.CwndBytes = float64(v.minRwnd(f))
			}
		}
		rate := paceRate(f.enforcedWindow(v.minRwnd(f)), bes.srtt, v.minRwnd(f))
		if bes.hasRestored && bes.restored > 0 {
			// A restored flow resumes at its checkpointed rate instead of
			// re-deriving from scratch (the window survived the outage too).
			if r := int64(bes.restored); r > 0 && r <= paceMaxRate {
				rate = r
			}
			bes.hasRestored = false
		}
		bes.sh = netsim.NewShaper(v.Sim, rate, paceBurstMSS*int(f.MSS), paceSink{v, f})
		bes.sh.MaxQueueBytes = paceQueueCap(rate, int(f.MSS))
	}
	return bes
}

// paceQueueCap sizes the backlog bound for a rate: paceQueueDelay's worth of
// bytes, floored at a small burst and capped at paceQueueBytes.
func paceQueueCap(rate int64, mss int) int {
	b := int(float64(rate) / 8 * paceQueueDelay.Seconds())
	if min := paceQueueMinMSS * mss; b < min {
		b = min
	}
	if b > paceQueueBytes {
		b = paceQueueBytes
	}
	return b
}

// paceRate converts an enforced window into a pacing rate (bit/s), floored
// so a collapsed window still drains at minRwnd per max-RTT.
func paceRate(enforced int64, srtt sim.Duration, minRwnd int64) int64 {
	if srtt <= 0 {
		srtt = paceInitRTT
	}
	rate := int64(paceGain * float64(enforced*8) / srtt.Seconds())
	floor := int64(float64(minRwnd*8) / paceMaxRTT.Seconds())
	if rate < floor {
		rate = floor
	}
	if rate > paceMaxRate {
		rate = paceMaxRate
	}
	return rate
}

// OnAck implements Backend: refresh the rate from the current enforced
// window and the smoothed virtual RTT. The RWND field is never touched. A
// stale-feedback flow (fbStale) keeps its last rate: the CE signal is gone,
// so blind ACKs must not refill the pacer any faster (the growth freeze in
// the sender module holds the window; this holds the rate derivation).
func (paceBackend) OnAck(v *VSwitch, f *Flow, t packet.TCP, enforced int64, fbStale bool) bool {
	bes := paceInitLocked(v, f)
	if !fbStale {
		if bes.probeEnd != 0 && f.SndUna >= bes.probeEnd {
			// The probe segment's ack came back: one wire-release-to-ack
			// sample of the FABRIC RTT (base + switch queueing), excluding
			// time in our own pacer backlog. Both exclusions matter. The
			// estimate is an EWMA that MUST track upward as well as down:
			// fabric queue delay is the stabilizing feedback of the whole
			// conversion — a standing queue stretches the sample, srtt
			// rises, rate = g·W/srtt falls, the queue drains (a min filter
			// remembers one pre-buildup sample forever and keeps converting
			// the floor window into gigabits against a full buffer). And
			// sampling rounds instead of wire time folds the flow's own
			// backlog delay into srtt, making rate ∝ 1/(own backlog): a
			// winner-take-all positive feedback loop where slow flows
			// measure themselves slow (incast collapses bimodally either
			// way, just through different loops).
			sample := v.Sim.Now() - bes.probeAt
			if sample < paceMinRTT {
				sample = paceMinRTT
			}
			if sample > paceMaxRTT {
				sample = paceMaxRTT
			}
			if sample < bes.srtt {
				// Snap down: a release→ack sample can only OVERshoot the
				// fabric RTT (a retransmission hole ahead of the probe
				// delays the cumulative ack — and the hole-filling segment
				// crawls through our own backlog, which at a collapsed rate
				// takes tens of ms), never undershoot it. A single clean
				// probe is therefore ground truth, and believing it
				// immediately is what breaks the starvation loop: inflated
				// srtt → floor rate → slow hole repair → inflated samples.
				bes.srtt = sample
			} else {
				bes.srtt = ((paceSrttWeight-1)*bes.srtt + sample) / paceSrttWeight
			}
			bes.probeEnd = 0
		}
		// Recompute the window rather than trusting the caller's snapshot:
		// on a first-ack init, paceInitLocked just re-seeded CwndBytes below
		// the pre-init value the snapshot was taken from, and converting the
		// stale IW-derived window would be exactly the unclocked blast the
		// re-seed exists to prevent.
		bes.sh.Rate = paceRate(f.enforcedWindow(v.minRwnd(f)), bes.srtt, v.minRwnd(f))
		bes.sh.MaxQueueBytes = paceQueueCap(bes.sh.Rate, int(f.MSS))
	}
	return false
}

// OnEgress implements Backend: admit the segment through the token bucket.
// Within budget it passes untouched; beyond budget it queues in the pacer
// (connection tracking advances now — the segment WILL go out) and is
// released onto the wire at the paced rate; beyond the queue bound it drops.
func (paceBackend) OnEgress(v *VSwitch, f *Flow, p *packet.Packet, segEnd, plen int64) bool {
	if plen <= 0 || !v.Cfg.EnforceRwnd {
		// Pure FIN/control segments pass; observation mode paces nothing.
		return false
	}
	bes := paceInitLocked(v, f)
	if segEnd <= f.SndNxt {
		// Retransmission (it advances nothing): the hole it fills is what
		// blocks every cumulative ack, while the backlog draining at the
		// collapsed rate sits BEHIND it in sequence space. Pacing it means
		// the repair crawls through our own queue; dropping it (the backlog
		// is fullest exactly when holes exist) sends the guest into RTO
		// backoff — a self-sustaining wedge. Debit the bucket if credit
		// allows and put it on the wire now either way.
		bes.sh.TryConsume(p.WireLen())
		return false
	}
	if bes.sh.TryConsume(p.WireLen()) {
		// Going to the wire right now: a pass-through segment can carry the
		// RTT probe directly.
		paceArmProbeLocked(v, f, segEnd)
		return false
	}
	bes.throttled = true
	if !bes.sh.CanQueue(p.WireLen()) {
		// Backlog bound hit: drop without advancing connection tracking,
		// exactly like a policing drop — the guest retransmits. The drop
		// time feeds LossIsFabric: the dupacks this provokes are ours.
		bes.lastDropAt = v.Sim.Now()
		v.Metrics.PaceDrops.Inc()
		return true
	}
	// The packet is leaving the normal path here, so the egress duties that
	// run after senderEgress (ECT marking) happen at queue time; feedback
	// piggybacking is skipped, like any consumed packet — pure ACKs carry it.
	v.noteSegmentLocked(f, segEnd)
	if v.Cfg.MarkECT {
		if ip := p.IP(); ip.ECN() == packet.NotECT {
			ip.SetECN(packet.ECT0)
			v.Metrics.ECTMarks.Inc()
		}
	}
	bes.sh.Enqueue(p)
	v.Metrics.PaceQueued.Inc()
	return true
}

// DupAckWindow implements Backend: pace never rewrites windows, so
// synthesized ACKs echo the guest's own last advertised window when known.
func (paceBackend) DupAckWindow(v *VSwitch, f *Flow, enforcedField uint16) uint16 {
	if f.lastWndSeen {
		return f.lastWndRaw
	}
	return enforcedField
}

// WindowLimited implements Backend: growth is earned when the token bucket
// was the binding constraint since the last ACK (a segment had to queue or
// drop). Comparing guest inflight against the virtual window — the
// rewriting backends' gauge — is meaningless here, and the stand-in must
// not be "always grow": with cuts paced once per guest window and growth
// credited per ACK, an unconditionally-growing window diverges until the
// rate stops shaping anything. Without enforcement there is no bucket, so
// fall back to the usage half of the inflight gauge for tracking.
func (paceBackend) WindowLimited(v *VSwitch, f *Flow, enforcing bool, maxInflight int64) bool {
	if !enforcing {
		return float64(maxInflight) >= f.CwndBytes-float64(f.MSS)
	}
	bes := f.beState()
	limited := bes.throttled
	bes.throttled = false
	return limited
}

// RoundAnchor implements Backend: one virtual window past the ack, capped
// at snd_nxt (a round cannot complete on data never sent). Anchoring at
// snd_nxt itself would let the guest's unbounded inflight stretch the law's
// cadence — see the interface comment.
func (paceBackend) RoundAnchor(v *VSwitch, f *Flow, absAck int64) int64 {
	anchor := absAck + f.enforcedWindow(v.minRwnd(f))
	if anchor > f.SndNxt {
		anchor = f.SndNxt
	}
	return anchor
}

// LossIsFabric implements Backend: dupacks within a feedback horizon of the
// pacer's own queue-bound drop are attributed to the pacer, not the fabric.
// The horizon is the time for the drop to surface as dupacks at this
// vSwitch: a round trip (plus the backlog the pacer itself adds), padded
// 4×. On an ECN fabric genuine overload surfaces as CE marks — which still
// cut through Congested — so the rare mis-attributed real loss costs one
// delayed reaction, while mis-attributing our own drops to the fabric locks
// the flow at the window floor permanently.
func (paceBackend) LossIsFabric(v *VSwitch, f *Flow) bool {
	bes := f.beState()
	if bes.lastDropAt == 0 {
		return true
	}
	horizon := 4*bes.srtt + paceQueueDelay
	return v.Sim.Now()-bes.lastDropAt > horizon
}

// SaveState implements Backend: checkpoint the pacing rate (bit/s).
func (paceBackend) SaveState(f *Flow) float64 {
	if f.cold != nil && f.cold.bes.sh != nil {
		return float64(f.cold.bes.sh.Rate)
	}
	return 0
}

// RestoreState implements Backend: seed the rate for the pacer's first use.
func (paceBackend) RestoreState(v *VSwitch, f *Flow, state float64) {
	if state > 0 {
		bes := f.beState()
		bes.restored = state
		bes.hasRestored = true
	}
}

// ---------------------------------------------------------------------------
// adaptive-k: dynamic-ECN-threshold congestion decision.
// ---------------------------------------------------------------------------

const (
	// akHighAlpha: above this measured load, K halves toward maximum
	// sensitivity (every marked byte counts, like plain DCTCP).
	akHighAlpha = 0.5
	// akLowAlpha: below this, K grows additively so isolated marks stop
	// costing a multiplicative cut.
	akLowAlpha = 0.05
	// akMaxKMSS caps K (in MSS units); beyond ~2 segments of marked bytes
	// per window the fabric is congested no matter what K says.
	akMaxKMSS = 2
)

// adaptiveKBackend enforces exactly like dctcp-cut (same rewrite, same
// policing — it embeds the same mechanism) but moves the congestion decision
// behind a load-adaptive threshold: a window only counts as congested once
// its CE-marked bytes reach K, and K tracks α once per round.
type adaptiveKBackend struct{ dctcpCutBackend }

func (adaptiveKBackend) Name() string { return "adaptive-k" }

// Congested implements Backend: accumulate marked bytes since the last cut
// and compare against the adaptive threshold.
func (adaptiveKBackend) Congested(v *VSwitch, f *Flow, totalDelta, markedDelta uint32) bool {
	bes := f.beState()
	if bes.kBytes == 0 {
		bes.kBytes = int64(f.MSS)
		if bes.hasRestored && bes.restored >= 1 {
			if k := int64(bes.restored); k >= 1 && k <= int64(akMaxKMSS*f.MSS) {
				bes.kBytes = k
			}
			bes.hasRestored = false
		}
		bes.kRoundSeq = f.alphaSeq
		bes.kCutSeq = f.cutSeq
	}
	if f.alphaSeq != bes.kRoundSeq {
		// Once per α round, adapt K to the measured load.
		bes.kRoundSeq = f.alphaSeq
		switch {
		case f.Alpha > akHighAlpha:
			if bes.kBytes > 1 {
				bes.kBytes /= 2
				if bes.kBytes < 1 {
					bes.kBytes = 1
				}
				v.Metrics.AdaptiveKAdjusts.Inc()
			}
		case f.Alpha < akLowAlpha:
			if max := int64(akMaxKMSS * f.MSS); bes.kBytes < max {
				bes.kBytes += int64(f.MSS / 4)
				if bes.kBytes > max {
					bes.kBytes = max
				}
				v.Metrics.AdaptiveKAdjusts.Inc()
			}
		}
	}
	if bes.kCutSeq != f.cutSeq {
		// A cut fired (cutSeq advanced): marked bytes start over.
		bes.kCutSeq = f.cutSeq
		bes.markedAccum = 0
	}
	bes.markedAccum += int64(markedDelta)
	return markedDelta > 0 && bes.markedAccum >= bes.kBytes
}

// SaveState implements Backend: checkpoint the current threshold K.
func (adaptiveKBackend) SaveState(f *Flow) float64 {
	if f.cold != nil && f.cold.bes.kBytes > 0 {
		return float64(f.cold.bes.kBytes)
	}
	return 0
}

// RestoreState implements Backend.
func (adaptiveKBackend) RestoreState(v *VSwitch, f *Flow, state float64) {
	if state >= 1 {
		bes := f.beState()
		bes.restored = state
		bes.hasRestored = true
	}
}
