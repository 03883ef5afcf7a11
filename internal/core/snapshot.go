package core

import (
	"cmp"
	"math"
	"slices"
)

// Flow-state checkpoint/restore (warm restart).
//
// The vSwitch is exactly the component that gets restarted in production —
// OVS upgrades, host-agent redeploys, crashes — and all of AC/DC's
// enforcement lives in its per-flow state (§3.2–3.3: seq tracking, the
// window scale learned from the SYN, vCWND, DCTCP α). A checkpoint carries
// that state across a restart of the same vSwitch: SaveSnapshot copies every
// flow into a flowRecord, sorted by key, and Restart installs the records
// again in that order, so the restored table's layout, and every later
// Range and sweep, depend only on the flows saved. Restored numeric fields
// are clamped to sane ranges (sanitize): a live record can hold an MSS the
// peer's SYN announced below any usable size.
//
// UDP tunnel flows are deliberately not captured: their state includes a
// queue of in-flight guest datagrams that does not survive a process
// boundary, and the tunnel rebuilds itself from live traffic in one
// feedback interval.
//
// Every restored data-direction flow re-enters enforcement through the
// conservative resync machine (resync.go) — even a fresh ("warm") snapshot
// is one outage behind the wire.

// flowRecord is one flow's checkpointed state: every field that affects
// enforcement (pinned by TestSnapshotRoundTripLossless) plus the lifecycle
// bits needed to garbage-collect the restored entry correctly.
type flowRecord struct {
	Key        FlowKey
	Flags      uint8 // rec* bits
	PeerWScale uint8
	MSS        uint32
	ISS        uint32

	SndUna, SndNxt                  int64
	CwndBytes, SsthreshBytes, Alpha float64

	LastTotal, LastMarked, WindowTotal, WindowMarked uint32
	AlphaSeq, CutSeq                                 int64
	PrevCwnd                                         float64

	TotalBytes, MarkedBytes uint32
	VTimeouts, LossEvents   int64

	Beta      float64
	RwndClamp int64
	PolFlags  uint8 // polDisable
	PolVCC    string
}

// The handshake and FIN bits of flowRecord.Flags, and PolFlags' one bit.
const (
	recWScaleKnown uint8 = 1 << iota
	recGuestECN
	recSynSeen
	recSynAckSeen
	recISSValid
	recFinFwd
	recFinRev

	polDisable uint8 = 1 // Policy.Disable
)

// flag returns mask if b is set, else 0.
func flag(b bool, mask uint8) uint8 {
	if b {
		return mask
	}
	return 0
}

// record copies a flow into its checkpointed form.
func (f *Flow) record() flowRecord {
	return flowRecord{
		Key: f.Key,
		Flags: flag(f.WScaleKnown, recWScaleKnown) | flag(f.GuestECN, recGuestECN) |
			flag(f.synSeen, recSynSeen) | flag(f.synAckSeen, recSynAckSeen) |
			flag(f.issValid, recISSValid) | flag(f.finFwd, recFinFwd) | flag(f.finRev, recFinRev),
		PeerWScale: f.PeerWScale,
		MSS:        uint32(f.MSS),
		ISS:        f.iss,

		SndUna:        f.SndUna,
		SndNxt:        f.SndNxt,
		CwndBytes:     f.CwndBytes,
		SsthreshBytes: f.SsthreshBytes,
		Alpha:         f.Alpha,

		LastTotal:    f.lastTotal,
		LastMarked:   f.lastMarked,
		WindowTotal:  f.windowTotal,
		WindowMarked: f.windowMarked,
		AlphaSeq:     f.alphaSeq,
		CutSeq:       f.cutSeq,
		PrevCwnd:     f.prevCwndBytes,

		TotalBytes:  f.TotalBytes,
		MarkedBytes: f.MarkedBytes,
		VTimeouts:   f.VTimeouts(),
		LossEvents:  f.LossEvents(),

		Beta:      f.Policy.Beta,
		RwndClamp: f.Policy.RwndClampBytes,
		PolFlags:  flag(f.Policy.Disable, polDisable),
		PolVCC:    f.Policy.VCC,
	}
}

// policy is the record's per-flow policy, through the same sanitizer as the
// live FlowPolicy path (VSwitch.policy), so a restored flow and a fresh one
// obey one contract: β ∈ [0,1], non-negative clamp, known vCC name.
func (r *flowRecord) policy() Policy {
	return Policy{Beta: r.Beta, RwndClampBytes: r.RwndClamp,
		VCC: r.PolVCC, Disable: r.PolFlags&polDisable != 0}.sanitize()
}

// sanitize clamps a record's numerics to ranges the enforcement math
// tolerates, so a restored flow can never carry NaN windows, inverted
// sequence state, or an out-of-range α into the datapath.
func (x *flowRecord) sanitize(cfg *Config) {
	if x.MSS < 64 || x.MSS > 65535 {
		x.MSS = uint32(cfg.MTU - 40)
	}
	if !finitePositive(x.CwndBytes) {
		x.CwndBytes = initCwndPkts * float64(x.MSS)
	}
	if !finitePositive(x.SsthreshBytes) {
		x.SsthreshBytes = 1 << 40
	}
	if !(x.PrevCwnd >= 0) || math.IsInf(x.PrevCwnd, 0) {
		x.PrevCwnd = 0
	}
	if !(x.Alpha >= 0) { // NaN fails this too
		x.Alpha = initAlpha
	}
	x.Alpha = min(x.Alpha, 1)
	x.SndUna = min(x.SndUna, x.SndNxt)
	x.VTimeouts = max(x.VTimeouts, 0)
	x.LossEvents = max(x.LossEvents, 0)
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// restoreSender writes the record's sender state into b.
func (x *flowRecord) restoreSender(b *senderBlock) {
	b.WScaleKnown = x.Flags&recWScaleKnown != 0
	b.issValid = x.Flags&recISSValid != 0
	b.PeerWScale = x.PeerWScale
	b.MSS = int32(x.MSS)
	b.SndUna, b.SndNxt = x.SndUna, x.SndNxt
	b.CwndBytes, b.SsthreshBytes, b.Alpha = x.CwndBytes, x.SsthreshBytes, x.Alpha
	b.lastTotal, b.lastMarked = x.LastTotal, x.LastMarked
	b.windowTotal, b.windowMarked = x.WindowTotal, x.WindowMarked
	b.alphaSeq, b.cutSeq, b.prevCwndBytes = x.AlphaSeq, x.CutSeq, x.PrevCwnd
	b.maxInflight = b.SndNxt - b.SndUna
	if b.issValid {
		// Even a fresh snapshot is one outage behind the wire: re-enter
		// enforcement through the conservative resync round.
		b.enterResyncLocked()
	}
}

// same reports whether b holds d's state bit for bit (== takes −0 for +0).
func (b *senderBlock) same(d *senderBlock) bool {
	sign := math.Signbit
	return *b == *d && sign(b.CwndBytes) == sign(d.CwndBytes) && sign(b.SsthreshBytes) == sign(d.SsthreshBytes) &&
		sign(b.Alpha) == sign(d.Alpha) && sign(b.prevCwndBytes) == sign(d.prevCwndBytes)
}

// --- vSwitch API ---

// SaveSnapshot checkpoints the current flow table: one record per flow,
// sorted by flow key, so identical tables yield identical checkpoints. UDP
// tunnel flows are skipped (soft state; see the file comment). The result is
// never nil, even for an empty table: Restart reads nil as a cold start.
func (v *VSwitch) SaveSnapshot() []flowRecord {
	recs := make([]flowRecord, 0, v.Table.Len())
	v.Table.Range(func(f *Flow) {
		if !f.isUDP {
			recs = append(recs, f.record())
		}
	})
	slices.SortFunc(recs, func(a, b flowRecord) int {
		ka, kb := a.Key, b.Key
		return cmp.Or(cmp.Compare(ka.Src, kb.Src), cmp.Compare(ka.Dst, kb.Dst),
			cmp.Compare(ka.SPort, kb.SPort), cmp.Compare(ka.DPort, kb.DPort))
	})
	v.Metrics.SnapshotSaves.Inc()
	return recs
}

// RestoreSnapshot installs a checkpoint's flows into the table, in the
// checkpoint's order. Every restored data-direction flow enters the
// conservative resync mode (resync.go) before enforcement resumes, and the
// policy fields route through the Sanitized choke point (flowRecord.policy).
// The checkpoint itself is left as saved.
func (v *VSwitch) RestoreSnapshot(recs []flowRecord) {
	now := v.Sim.Now()
	for _, x := range recs {
		x.sanitize(&v.Cfg)
		// A record whose sender state is not the defaults gets a block.
		d := *v.defaults
		x.restoreSender(&d)
		f := v.flowForRestore(x.Key, !d.same(v.defaults) || x.VTimeouts != 0 || x.LossEvents != 0)
		if f == nil {
			// Table at capacity (MaxFlows smaller than the snapshot): the
			// overflow flows fail open exactly like new flows at capacity.
			continue
		}
		f.GuestECN = x.Flags&recGuestECN != 0
		f.synSeen = x.Flags&recSynSeen != 0
		f.synAckSeen = x.Flags&recSynAckSeen != 0
		f.finFwd = x.Flags&recFinFwd != 0
		f.finRev = x.Flags&recFinRev != 0
		f.iss = x.ISS
		f.TotalBytes = x.TotalBytes
		f.MarkedBytes = x.MarkedBytes
		b := *f.senderBlock
		x.restoreSender(&b)
		if keepCold := x.VTimeouts != 0 || x.LossEvents != 0 || f.cold != nil; keepCold || !b.same(f.senderBlock) {
			v.ownSender(f)
			*f.senderBlock = b
			if keepCold {
				c := f.writeCold()
				c.vTimeouts, c.lossEvents = x.VTimeouts, x.LossEvents
			}
		}
		f.Policy = v.intern(x.policy())
		v.setLaw(f) // swap the growth law like applyToLive does
		f.lastActive = now
	}
	v.Metrics.SnapshotRestores.Inc()
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
func (v *VSwitch) Restart(snapshot []flowRecord) {
	v.resetTable()
	v.trimParked(false) // the process died: its free list goes with the table
	if v.sweepTimer != nil {
		v.sweepTimer.Stop()
	}
	v.Metrics.Restarts.Inc()
	if snapshot != nil {
		v.RestoreSnapshot(snapshot)
	}
}

// Reattach re-enables the datapath hooks after a Detach (the restart
// scheduler detaches during the outage window so in-flight traffic passes
// through a hook-less host, exactly like a dead OVS with fail-open flows).
func (v *VSwitch) Reattach() { v.attached = true }

// FlowCount reports the current flow-table size (part of the restart-target
// surface: recurring restart plans stop re-arming on a drained table).
func (v *VSwitch) FlowCount() int { return v.Table.Len() }
