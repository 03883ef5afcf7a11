package experiments

import (
	"fmt"
	"strings"

	"acdc/internal/metrics"
	"acdc/internal/sim"
	"acdc/internal/topo"
)

// Telemetry is a per-interval timeline of fleet-wide datapath metrics for
// one scheme's run: the merged snapshot of every attached vSwitch's registry,
// sampled on a simulated-time tick, plus the final aggregate. It is the
// operator's view of a run — how much the fabric marked, how hard the
// vSwitches squeezed windows, how the flow tables churned — alongside the
// experiment's headline numbers.
type Telemetry struct {
	Label    string
	Interval sim.Duration
	Times    []sim.Time
	Samples  []metrics.Snapshot // cumulative fleet aggregate at each tick
	Final    metrics.Snapshot   // aggregate taken at Finish

	net *topo.Net
	ev  *sim.Event
}

// fleetSnapshot merges every attached vSwitch's registry into one view,
// plus the fault injector's counters when a chaos profile is active and the
// fabric's link-lifecycle/ECMP counters when the topology has one, so
// injected degradation shows up next to the datapath reaction it caused.
// ok is false when the net has no AC/DC modules (the CUBIC/DCTCP baselines).
func fleetSnapshot(net *topo.Net) (snap metrics.Snapshot, ok bool) {
	var snaps []metrics.Snapshot
	for _, v := range net.ACDC {
		if v != nil {
			snaps = append(snaps, v.Metrics.Snapshot())
		}
	}
	if len(snaps) == 0 {
		return metrics.Snapshot{}, false
	}
	if net.Faults != nil {
		snaps = append(snaps, net.Faults.Registry().Snapshot())
	}
	if net.HasFabric() {
		snaps = append(snaps, net.FabricSnapshot())
	}
	return metrics.Merge(snaps...), true
}

// watchFleet starts a telemetry recorder ticking every interval of simulated
// time. Returns nil when the net has no AC/DC vSwitches; every Telemetry
// method is nil-safe so callers need not branch on the scheme.
//
// The recorder reschedules itself forever, which is safe because every
// experiment bounds execution with RunFor; Finish cancels the pending tick
// so a drained simulator can still terminate.
func watchFleet(net *topo.Net, label string, interval sim.Duration) *Telemetry {
	if _, ok := fleetSnapshot(net); !ok {
		return nil
	}
	tl := &Telemetry{Label: label, Interval: interval, net: net}
	var tick func()
	tick = func() {
		snap, _ := fleetSnapshot(net)
		tl.Times = append(tl.Times, net.Sim.Now())
		tl.Samples = append(tl.Samples, snap)
		tl.ev = net.Sim.Schedule(interval, tick)
	}
	tl.ev = net.Sim.Schedule(interval, tick)
	return tl
}

// Finish stops the recorder and captures the final fleet aggregate.
func (tl *Telemetry) Finish() {
	if tl == nil {
		return
	}
	if tl.ev != nil {
		tl.net.Sim.Cancel(tl.ev)
		tl.ev = nil
	}
	tl.Final, _ = fleetSnapshot(tl.net)
}

// CEFraction returns CE-marked over total received payload bytes in the
// final aggregate — the fabric's observed congestion-marking rate.
func (tl *Telemetry) CEFraction() float64 {
	if tl == nil {
		return 0
	}
	total := tl.Final.Counter("rx_data_bytes_total")
	if total == 0 {
		return 0
	}
	return float64(tl.Final.Counter("rx_ce_bytes_total")) / float64(total)
}

// RwndRewrites returns the final count of enforced window overwrites.
func (tl *Telemetry) RwndRewrites() int64 {
	if tl == nil {
		return 0
	}
	return tl.Final.Counter("rwnd_rewrites_total")
}

// maxTimelineRows bounds the rendered timeline; long runs are strided.
const maxTimelineRows = 12

// String renders the timeline (per-interval deltas of the headline counters)
// followed by the full final snapshot, indented for embedding in reports.
func (tl *Telemetry) String() string {
	if tl == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry [%s] — fleet aggregate, tick %v, CE fraction %.1f%%:\n",
		tl.Label, tl.Interval, 100*tl.CEFraction())
	fmt.Fprintf(&b, "  %12s %14s %10s %8s %12s %8s\n",
		"t", "egress segs/t", "rx MB/t", "CE %", "rewrites/t", "flows")
	stride := 1
	if len(tl.Samples) > maxTimelineRows {
		stride = (len(tl.Samples) + maxTimelineRows - 1) / maxTimelineRows
	}
	prev := metrics.Snapshot{}
	prevIdx := -1
	for i := 0; i < len(tl.Samples); i += stride {
		s := tl.Samples[i]
		d := s.Delta(prev)
		cePct := 0.0
		if rx := d.Counter("rx_data_bytes_total"); rx > 0 {
			cePct = 100 * float64(d.Counter("rx_ce_bytes_total")) / float64(rx)
		}
		fmt.Fprintf(&b, "  %12v %14d %10.2f %8.1f %12d %8d\n",
			tl.Times[i], d.Counter("egress_segments_total"),
			float64(d.Counter("rx_data_bytes_total"))/1e6, cePct,
			d.Counter("rwnd_rewrites_total"), s.Gauge("flow_table_size"))
		prev, prevIdx = s, i
	}
	if stride > 1 {
		fmt.Fprintf(&b, "  (%d of %d ticks shown)\n", prevIdx/stride+1, len(tl.Samples))
	}
	fmt.Fprintf(&b, "final datapath metrics [%s]:\n", tl.Label)
	for _, line := range strings.Split(strings.TrimRight(tl.Final.Text(), "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
