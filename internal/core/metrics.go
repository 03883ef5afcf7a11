package core

import (
	"reflect"

	"acdc/internal/metrics"
)

// DatapathMetrics is a vSwitch's datapath series, held by value in one
// struct its registry reads in place and named by their `metric` tags, read
// once per process (datapathSchema). An update on the Egress/Ingress hot
// path is one plain add: no lookup, no pointer to a word of its own.
//
// Counter names follow the `*_total` convention; everything is visible via
// Snapshot(), the text/JSON encoders in internal/metrics, and the telemetry
// timelines internal/experiments records.
type DatapathMetrics struct {
	reg *metrics.Registry

	// Packet and byte throughput through the two datapath hooks.
	EgressSegs   metrics.Counter `metric:"egress_segments_total"`
	IngressSegs  metrics.Counter `metric:"ingress_segments_total"`
	EgressBytes  metrics.Counter `metric:"egress_bytes_total"` // IP length of valid packets
	IngressBytes metrics.Counter `metric:"ingress_bytes_total"`

	// Receiver-module congestion accounting: payload bytes counted toward
	// PACK feedback and the CE-marked subset. Their ratio is the fabric's
	// observed CE fraction — the operator's signal for tuning K and G.
	DataBytes metrics.Counter `metric:"rx_data_bytes_total"`
	CEBytes   metrics.Counter `metric:"rx_ce_bytes_total"`

	// ECN plumbing: packets stamped ECT on egress (§3.2 "mark all packets
	// ECN-capable") and packets whose ECN field was rewritten before
	// reaching the guest (CE hidden or ECT cleared).
	ECTMarks    metrics.Counter `metric:"ect_marked_total"`
	ECNStripped metrics.Counter `metric:"ecn_stripped_total"`

	// Enforcement: RWND overwrites applied vs. left as-is (the ACK already
	// carried a smaller window), and §3.3 policing drops.
	RwndRewrites  metrics.Counter `metric:"rwnd_rewrites_total"`
	RwndUnchanged metrics.Counter `metric:"rwnd_noop_total"`
	PolicingDrops metrics.Counter `metric:"policing_drops_total"`

	// Feedback channel: PACK options piggybacked/consumed and dedicated
	// FACK packets emitted/consumed. A high FACK share means ACK option
	// space is tight (or DisablePACK is on) and the fabric is carrying
	// extra feedback packets.
	PacksAttached metrics.Counter `metric:"packs_attached_total"`
	PacksConsumed metrics.Counter `metric:"packs_consumed_total"`
	FacksSent     metrics.Counter `metric:"facks_sent_total"`
	FacksConsumed metrics.Counter `metric:"facks_consumed_total"`

	// Loss inference and recovery assists (§3.1, §3.3).
	VTimeouts        metrics.Counter `metric:"vtimeouts_total"`
	DupAcksGenerated metrics.Counter `metric:"dupacks_generated_total"`
	UntrackedSegs    metrics.Counter `metric:"untracked_segments_total"`

	// Flow-table churn and size.
	FlowsCreated  metrics.Counter `metric:"flows_created_total"`
	FlowsRemoved  metrics.Counter `metric:"flows_removed_total"`
	FlowTableSize metrics.Gauge   `metric:"flow_table_size"`

	// Degradation paths. These are lazy: they appear in snapshots (and thus
	// text encodings and golden outputs) only once the event fires, so a
	// healthy run's telemetry is byte-identical to one recorded before the
	// fault machinery existed.
	FailOpen         metrics.LazyCounter `metric:"fail_open_total"`         // packets passed through untouched because the datapath could not safely process them
	MalformedOptions metrics.LazyCounter `metric:"malformed_options_total"` // TCP option blocks that failed validation
	FlowTableFull    metrics.LazyCounter `metric:"flow_table_full_total"`   // flow creations refused at MaxFlows
	FlowsEvicted     metrics.LazyCounter `metric:"flows_evicted_total"`     // flows removed by capacity-pressure eviction
	PressureSweeps   metrics.LazyCounter `metric:"pressure_sweeps_total"`   // eviction scans started at MaxFlows (rate-limited; see evictForPressure)
	FeedbackTimeouts metrics.LazyCounter `metric:"feedback_timeouts_total"` // ACKs processed while PACK/FACK feedback was stale

	// Warm restart and mid-flow resynchronization (snapshot.go, resync.go).
	// Lazy for the same reason: a run that never restarts keeps telemetry
	// byte-identical to a build without the restart machinery.
	Restarts              metrics.LazyCounter `metric:"vswitch_restarts_total"`        // Restart() invocations (cold or warm)
	SnapshotSaves         metrics.LazyCounter `metric:"snapshot_save_total"`           // flow-table checkpoints taken
	SnapshotRestores      metrics.LazyCounter `metric:"snapshot_restore_total"`        // checkpoints decoded and installed
	FlowsResynced         metrics.LazyCounter `metric:"flows_resynced_total"`          // flows that completed the conservative resync round
	FlowsAdoptedMidstream metrics.LazyCounter `metric:"flows_adopted_midstream_total"` // sender flows adopted without a handshake
	FeedbackResets        metrics.LazyCounter `metric:"feedback_resets_total"`         // cumulative-feedback regressions re-baselined (peer vSwitch restarted mid-flow)

	// Live policy control plane (install.go). Lazy: a run that never streams
	// a policy update keeps its telemetry byte-identical to older builds.
	PolicyInstalls metrics.LazyCounter `metric:"policy_installs_total"` // live per-flow policy overrides accepted

	// Per-algorithm CWND/α distributions, sampled once per RTT at each α
	// update, indexed by vccID. Registered with each law's first flow
	// (registerVCC), so a run's metric set names only the laws it ran.
	hists [len(vccNames)]lawHists
}

// datapathSchema names DatapathMetrics' series, once per process.
var datapathSchema = metrics.NewSchema[DatapathMetrics]()

// cwndBounds covers sub-MSS floors up to the largest window the RWND field
// can express under common scales, in powers of two.
var cwndBounds = metrics.ExponentialBounds(2048, 2, 14) // 2KB .. 16MB

// alphaBounds covers DCTCP's α ∈ [0,1] in 0.1 steps.
var alphaBounds = metrics.LinearBounds(0.1, 0.1, 10)

// lawSeries names each law's CWND and α histograms, once per process.
var lawSeries = func() (n [len(vccNames)][2]string) {
	for id, alg := range vccNames {
		n[id] = [2]string{"vcc_cwnd_bytes{alg=" + alg + "}", "vcc_alpha{alg=" + alg + "}"}
	}
	return n
}()

// newDatapathMetrics makes a vSwitch's series and the registry that reads
// them.
func newDatapathMetrics() *DatapathMetrics {
	m := &DatapathMetrics{reg: metrics.NewRegistry()}
	metrics.Register(m.reg, datapathSchema, m)
	return m
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
	if h := &m.hists[id]; h.cwnd == nil {
		h.cwnd = m.reg.Histogram(lawSeries[id][0], cwndBounds)
		h.alpha = m.reg.Histogram(lawSeries[id][1], alphaBounds)
	}
}

// Stats is a plain-value snapshot of the datapath event counters, kept for
// ergonomic assertions and quick printing; the metrics registry is the
// source of truth. Each field reads the DatapathMetrics series of its name.
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
	FlowsResynced                int64
	FlowsAdoptedMidstream        int64
	FeedbackResets               int64
	PolicyInstalls               int64
}

// statsSeries holds, for each Stats field, the index of the DatapathMetrics
// series of its name.
var statsSeries = func() (idx []int) {
	m := reflect.TypeFor[DatapathMetrics]()
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Stats]()) {
		series, _ := m.FieldByName(f.Name)
		idx = append(idx, series.Index[0])
	}
	return idx
}()

// Stats reads the current counter values into a Stats snapshot.
func (v *VSwitch) Stats() (s Stats) {
	out, m := reflect.ValueOf(&s).Elem(), reflect.ValueOf(v.Metrics).Elem()
	for i, j := range statsSeries {
		out.Field(i).SetInt(m.Field(j).Addr().Interface().(interface{ Value() int64 }).Value())
	}
	return s
}
