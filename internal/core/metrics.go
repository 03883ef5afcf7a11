package core

import "acdc/internal/metrics"

// DatapathMetrics holds the pre-resolved instrument handles the vSwitch
// datapath updates. Handles are resolved once at Attach time so the
// Egress/Ingress hot path performs only branch-predictable nil checks and
// plain adds — never a registry lookup.
//
// Counter names follow the `*_total` convention; everything is visible via
// Snapshot(), the text/JSON encoders in internal/metrics, and the telemetry
// timelines internal/experiments records.
type DatapathMetrics struct {
	reg *metrics.Registry

	// Packet and byte throughput through the two datapath hooks.
	EgressSegs   *metrics.Counter // egress_segments_total
	IngressSegs  *metrics.Counter // ingress_segments_total
	EgressBytes  *metrics.Counter // egress_bytes_total (IP length of valid packets)
	IngressBytes *metrics.Counter // ingress_bytes_total

	// Receiver-module congestion accounting: payload bytes counted toward
	// PACK feedback and the CE-marked subset. Their ratio is the fabric's
	// observed CE fraction — the operator's signal for tuning K and G.
	DataBytes *metrics.Counter // rx_data_bytes_total
	CEBytes   *metrics.Counter // rx_ce_bytes_total

	// ECN plumbing: packets stamped ECT on egress (§3.2 "mark all packets
	// ECN-capable") and packets whose ECN field was rewritten before
	// reaching the guest (CE hidden or ECT cleared).
	ECTMarks    *metrics.Counter // ect_marked_total
	ECNStripped *metrics.Counter // ecn_stripped_total

	// Enforcement: RWND overwrites applied vs. left as-is (the ACK already
	// carried a smaller window), and §3.3 policing drops.
	RwndRewrites  *metrics.Counter // rwnd_rewrites_total
	RwndUnchanged *metrics.Counter // rwnd_noop_total
	PolicingDrops *metrics.Counter // policing_drops_total

	// Feedback channel: PACK options piggybacked/consumed and dedicated
	// FACK packets emitted/consumed. A high FACK share means ACK option
	// space is tight (or DisablePACK is on) and the fabric is carrying
	// extra feedback packets.
	PacksAttached *metrics.Counter // packs_attached_total
	PacksConsumed *metrics.Counter // packs_consumed_total
	FacksSent     *metrics.Counter // facks_sent_total
	FacksConsumed *metrics.Counter // facks_consumed_total

	// Loss inference and recovery assists (§3.1, §3.3).
	VTimeouts        *metrics.Counter // vtimeouts_total
	DupAcksGenerated *metrics.Counter // dupacks_generated_total
	UntrackedSegs    *metrics.Counter // untracked_segments_total

	// Flow-table churn and size.
	FlowsCreated  *metrics.Counter // flows_created_total
	FlowsRemoved  *metrics.Counter // flows_removed_total
	FlowTableSize *metrics.Gauge   // flow_table_size

	// Degradation paths. These are lazy: they join the registry (and thus
	// snapshots, text encodings, and golden outputs) only when the event
	// actually fires, so a healthy run's telemetry is byte-identical to one
	// recorded before the fault machinery existed.
	FailOpen         *metrics.LazyCounter // fail_open_total: packets passed through untouched because the datapath could not safely process them
	MalformedOptions *metrics.LazyCounter // malformed_options_total: TCP option blocks that failed validation
	FlowTableFull    *metrics.LazyCounter // flow_table_full_total: flow creations refused at MaxFlows
	FlowsEvicted     *metrics.LazyCounter // flows_evicted_total: flows removed by capacity-pressure eviction
	PressureSweeps   *metrics.LazyCounter // pressure_sweeps_total: eviction scans started at MaxFlows (rate-limited; see evictForPressure)
	FeedbackTimeouts *metrics.LazyCounter // feedback_timeouts_total: ACKs processed while PACK/FACK feedback was stale

	// Warm restart and mid-flow resynchronization (snapshot.go, resync.go).
	// Lazy for the same reason: a run that never restarts keeps telemetry
	// byte-identical to a build without the restart machinery.
	Restarts              *metrics.LazyCounter // vswitch_restarts_total: Restart() invocations (cold or warm)
	SnapshotSaves         *metrics.LazyCounter // snapshot_save_total: flow-table checkpoints taken
	SnapshotRestores      *metrics.LazyCounter // snapshot_restore_total: checkpoints decoded and installed
	SnapshotCorrupt       *metrics.LazyCounter // snapshot_corrupt_total: checkpoints rejected (failed open to a fresh table)
	FlowsResynced         *metrics.LazyCounter // flows_resynced_total: flows that completed the conservative resync round
	FlowsAdoptedMidstream *metrics.LazyCounter // flows_adopted_midstream_total: sender flows adopted without a handshake
	FeedbackResets        *metrics.LazyCounter // feedback_resets_total: cumulative-feedback regressions re-baselined (peer vSwitch restarted mid-flow)

	// Live policy control plane (install.go). Lazy: a run that never streams
	// a policy update keeps its telemetry byte-identical to older builds.
	PolicyInstalls *metrics.LazyCounter // policy_installs_total: live per-flow policy overrides accepted

	// Per-algorithm CWND/α distributions, sampled once per RTT at each α
	// update, indexed by vccID. Registered with each law's first flow
	// (registerVCC), so a run's metric set names only the laws it ran.
	hists [len(vccNames)]*lawHists

	// Flow-table shape gauges, registered lazily on the first
	// UpdateTableGauges call (daemon /status and /metrics handlers) so runs
	// that never poll them keep telemetry byte-identical to older builds.
	tableOcc *metrics.Gauge // flow_table_occupancy: total tracked flows (== Table.Len)
	shardMax *metrics.Gauge // flow_table_shard_max: longest shard
	shardImb *metrics.Gauge // flow_table_shard_imbalance_permille: 1000 * max/mean shard length
}

// cwndBounds covers sub-MSS floors up to the largest window the RWND field
// can express under common scales, in powers of two.
var cwndBounds = metrics.ExponentialBounds(2048, 2, 14) // 2KB .. 16MB

// alphaBounds covers DCTCP's α ∈ [0,1] in 0.1 steps.
var alphaBounds = metrics.LinearBounds(0.1, 0.1, 10)

// NewDatapathMetrics resolves every instrument in reg.
func NewDatapathMetrics(reg *metrics.Registry) *DatapathMetrics {
	return &DatapathMetrics{
		reg:              reg,
		EgressSegs:       reg.Counter("egress_segments_total"),
		IngressSegs:      reg.Counter("ingress_segments_total"),
		EgressBytes:      reg.Counter("egress_bytes_total"),
		IngressBytes:     reg.Counter("ingress_bytes_total"),
		DataBytes:        reg.Counter("rx_data_bytes_total"),
		CEBytes:          reg.Counter("rx_ce_bytes_total"),
		ECTMarks:         reg.Counter("ect_marked_total"),
		ECNStripped:      reg.Counter("ecn_stripped_total"),
		RwndRewrites:     reg.Counter("rwnd_rewrites_total"),
		RwndUnchanged:    reg.Counter("rwnd_noop_total"),
		PolicingDrops:    reg.Counter("policing_drops_total"),
		PacksAttached:    reg.Counter("packs_attached_total"),
		PacksConsumed:    reg.Counter("packs_consumed_total"),
		FacksSent:        reg.Counter("facks_sent_total"),
		FacksConsumed:    reg.Counter("facks_consumed_total"),
		VTimeouts:        reg.Counter("vtimeouts_total"),
		DupAcksGenerated: reg.Counter("dupacks_generated_total"),
		UntrackedSegs:    reg.Counter("untracked_segments_total"),
		FlowsCreated:     reg.Counter("flows_created_total"),
		FlowsRemoved:     reg.Counter("flows_removed_total"),
		FlowTableSize:    reg.Gauge("flow_table_size"),
		FailOpen:         reg.Lazy("fail_open_total"),
		MalformedOptions: reg.Lazy("malformed_options_total"),
		FlowTableFull:    reg.Lazy("flow_table_full_total"),
		FlowsEvicted:     reg.Lazy("flows_evicted_total"),
		PressureSweeps:   reg.Lazy("pressure_sweeps_total"),
		FeedbackTimeouts: reg.Lazy("feedback_timeouts_total"),

		Restarts:              reg.Lazy("vswitch_restarts_total"),
		SnapshotSaves:         reg.Lazy("snapshot_save_total"),
		SnapshotRestores:      reg.Lazy("snapshot_restore_total"),
		SnapshotCorrupt:       reg.Lazy("snapshot_corrupt_total"),
		FlowsResynced:         reg.Lazy("flows_resynced_total"),
		FlowsAdoptedMidstream: reg.Lazy("flows_adopted_midstream_total"),
		FeedbackResets:        reg.Lazy("feedback_resets_total"),
		PolicyInstalls:        reg.Lazy("policy_installs_total"),
	}
}

// Registry exposes the backing registry.
func (m *DatapathMetrics) Registry() *metrics.Registry { return m.reg }

// Snapshot returns a point-in-time copy of every datapath metric.
func (m *DatapathMetrics) Snapshot() metrics.Snapshot { return m.reg.Snapshot() }

// lawHists is one virtual CC's CWND and α distributions.
type lawHists struct{ cwnd, alpha *metrics.Histogram }

// registerVCC registers law id's histograms if no flow has run it yet. Flow
// setup and law swaps call it, before that flow's per-RTT reads of hists.
func (m *DatapathMetrics) registerVCC(id vccID) {
	if m.hists[id] == nil {
		alg := id.String()
		m.hists[id] = &lawHists{m.reg.Histogram("vcc_cwnd_bytes{alg="+alg+"}", cwndBounds),
			m.reg.Histogram("vcc_alpha{alg="+alg+"}", alphaBounds)}
	}
}

// tableGauges lazily registers and returns the flow-table shape gauges.
func (m *DatapathMetrics) tableGauges() (occ, max, imb *metrics.Gauge) {
	if m.tableOcc == nil {
		m.tableOcc = m.reg.Gauge("flow_table_occupancy")
		m.shardMax = m.reg.Gauge("flow_table_shard_max")
		m.shardImb = m.reg.Gauge("flow_table_shard_imbalance_permille")
	}
	return m.tableOcc, m.shardMax, m.shardImb
}

// TableShape is one control-plane observation of the flow table's size and
// shard balance, as published by UpdateTableGauges.
type TableShape struct {
	Flows             int   `json:"flows"`
	ShardMax          int   `json:"shard_max"`
	ImbalancePermille int64 `json:"shard_imbalance_permille"`
}

// UpdateTableGauges scans the flow table's shards once and publishes
// occupancy and imbalance gauges (registered lazily on first call). The
// imbalance is 1000·max/mean shard length: 1000 means perfectly balanced,
// numShards·1000 means everything hashed into one shard. Control-plane use
// (daemon /status and /metrics); the datapath never calls it.
func (v *VSwitch) UpdateTableGauges() TableShape {
	total, maxShard := v.Table.ShardStats()
	var imb int64
	if total > 0 {
		mean := float64(total) / numShards
		imb = int64(float64(maxShard)/mean*1000 + 0.5)
	}
	occ, mx, im := v.Metrics.tableGauges()
	occ.Set(int64(total))
	mx.Set(int64(maxShard))
	im.Set(imb)
	return TableShape{Flows: total, ShardMax: maxShard, ImbalancePermille: imb}
}

// Stats is a plain-value snapshot of the datapath event counters, kept for
// ergonomic assertions and quick printing; the metrics registry is the
// source of truth. Field names predate the metrics layer and are preserved.
type Stats struct {
	FlowsCreated, FlowsRemoved   int64
	PacksAttached, FacksSent     int64
	FacksConsumed, PacksConsumed int64
	RwndRewrites, RwndUnchanged  int64
	PolicingDrops                int64
	VTimeouts, DupAcksGenerated  int64
	UntrackedSegs                int64
	EgressSegs, IngressSegs      int64
	FailOpen, MalformedOptions   int64
	FlowTableFull, FlowsEvicted  int64
	PressureSweeps               int64
	FeedbackTimeouts             int64
	Restarts                     int64
	SnapshotSaves                int64
	SnapshotRestores             int64
	SnapshotCorrupt              int64
	FlowsResynced                int64
	FlowsAdoptedMidstream        int64
	FeedbackResets               int64
	PolicyInstalls               int64
}

// Stats reads the current counter values into a Stats snapshot.
func (v *VSwitch) Stats() Stats {
	m := v.Metrics
	return Stats{
		FlowsCreated:     m.FlowsCreated.Value(),
		FlowsRemoved:     m.FlowsRemoved.Value(),
		PacksAttached:    m.PacksAttached.Value(),
		FacksSent:        m.FacksSent.Value(),
		FacksConsumed:    m.FacksConsumed.Value(),
		PacksConsumed:    m.PacksConsumed.Value(),
		RwndRewrites:     m.RwndRewrites.Value(),
		RwndUnchanged:    m.RwndUnchanged.Value(),
		PolicingDrops:    m.PolicingDrops.Value(),
		VTimeouts:        m.VTimeouts.Value(),
		DupAcksGenerated: m.DupAcksGenerated.Value(),
		UntrackedSegs:    m.UntrackedSegs.Value(),
		EgressSegs:       m.EgressSegs.Value(),
		IngressSegs:      m.IngressSegs.Value(),
		FailOpen:         m.FailOpen.Value(),
		MalformedOptions: m.MalformedOptions.Value(),
		FlowTableFull:    m.FlowTableFull.Value(),
		FlowsEvicted:     m.FlowsEvicted.Value(),
		PressureSweeps:   m.PressureSweeps.Value(),
		FeedbackTimeouts: m.FeedbackTimeouts.Value(),

		Restarts:              m.Restarts.Value(),
		SnapshotSaves:         m.SnapshotSaves.Value(),
		SnapshotRestores:      m.SnapshotRestores.Value(),
		SnapshotCorrupt:       m.SnapshotCorrupt.Value(),
		FlowsResynced:         m.FlowsResynced.Value(),
		FlowsAdoptedMidstream: m.FlowsAdoptedMidstream.Value(),
		FeedbackResets:        m.FeedbackResets.Value(),
		PolicyInstalls:        m.PolicyInstalls.Value(),
	}
}
