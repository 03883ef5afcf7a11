package core

// Mid-flow resynchronization (the warm-restart companion to snapshot.go).
//
// A flow the vSwitch adopts without having observed its handshake — picked up
// mid-stream after a cold restart, or restored from a snapshot whose state
// may lag the wire — cannot be trusted for enforcement: the window scale may
// be unknown, snd_una/snd_nxt may be behind packets that were in flight
// during the outage, and the feedback baseline (lastTotal/lastMarked) may be
// unanchored relative to the peer's cumulative counters. Acting on that
// state could shrink the guest's window far below what the algorithm would
// have chosen, or police away conforming traffic.
//
// Such flows therefore run a small explicit state machine:
//
//	resyncNone ──adopt/restore──▶ resyncAwaitFeedback
//	resyncAwaitFeedback ──first PACK/FACK──▶ resyncAwaitRound
//	resyncAwaitRound ──feedback ACK covering resyncSeq──▶ resyncNone
//
// While the state is not resyncNone the flow is in conservative mode: the
// RWND field is never rewritten (the guest keeps its own advertised window),
// policing is disabled, but ECT marking, ECN stripping, feedback generation
// and connection tracking all stay on. The first PACK/FACK after adoption
// only re-baselines the cumulative feedback counters (no delta is credited —
// the peer's totals are unanchored relative to ours); the machine then waits
// until a later feedback-carrying ACK covers everything sent since that
// baseline (one clean round). Only then does enforcement resume, and
// flows_resynced_total counts the completed recovery.
//
// A flow whose peer never produces AC/DC feedback (a non-AC/DC peer, or a
// one-sided deployment) stays in conservative mode indefinitely — without
// feedback the virtual DCTCP loop has no congestion signal, so passthrough
// is the correct degradation, and it is exactly what a plain vSwitch does.

// resyncState is the per-flow position in the resynchronization machine.
type resyncState uint8

const (
	// resyncNone: normal operation; enforcement and policing are live.
	resyncNone resyncState = iota
	// resyncAwaitFeedback: adopted without a handshake (mid-stream pickup or
	// snapshot restore); waiting for the first PACK/FACK to re-anchor the
	// feedback baseline.
	resyncAwaitFeedback
	// resyncAwaitRound: baseline re-anchored; waiting for a feedback-carrying
	// ACK to cover resyncSeq (one clean round) before enforcing again.
	resyncAwaitRound
)

// String names the state for diagnostics and tests.
func (s resyncState) String() string {
	switch s {
	case resyncNone:
		return "none"
	case resyncAwaitFeedback:
		return "await-feedback"
	case resyncAwaitRound:
		return "await-round"
	default:
		return "invalid"
	}
}

// enterResyncLocked puts a flow into conservative mode. Idempotent: a flow
// already resynchronizing keeps its progress.
func (f *Flow) enterResyncLocked() {
	if f.resync != resyncNone {
		return
	}
	f.resync = resyncAwaitFeedback
	f.resyncSeq = 0
}

// resyncAdvanceLocked runs one transition of the machine for an ACK carrying
// (or not carrying) feedback, after absolute-ack resolution. At most one
// transition fires per ACK, so completing a resync takes at least two
// feedback events — a genuine round, never a single packet.
func (v *VSwitch) resyncAdvanceLocked(f *Flow, haveFeedback bool, absAck int64) {
	if !haveFeedback {
		return
	}
	switch f.resync {
	case resyncAwaitFeedback:
		f.resync = resyncAwaitRound
		f.resyncSeq = f.SndNxt
	case resyncAwaitRound:
		if absAck >= f.resyncSeq {
			f.resync = resyncNone
			f.resyncSeq = 0
			v.Metrics.FlowsResynced.Inc()
		}
	}
}

// Resyncing reports whether the flow is still in conservative mode.
func (f *Flow) Resyncing() bool { return f.resync != resyncNone }

// ResyncState returns the state name ("none", "await-feedback",
// "await-round") for tests and instrumentation.
func (f *Flow) ResyncState() string { return f.resync.String() }
