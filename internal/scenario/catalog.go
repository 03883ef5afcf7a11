package scenario

import (
	"fmt"
	"strings"

	"acdc/internal/faults"
	"acdc/internal/sim"
)

// fp returns a pointer bound for Check literals.
func fp(v float64) *float64 { return &v }

func d(v sim.Duration) Duration { return Duration(v) }

// Catalog returns the built-in scenario suite, in run order. Each entry is a
// complete Spec with a smoke variant (reduced CI shape) and the invariant
// checks that must hold for the scenario to count as healthy; numeric drift
// within a healthy run is tracked by the baseline diff instead.
//
// The catalog deliberately spans the paper's figures (dumbbell, incast,
// concurrent stride) and the regimes the figures skip: degraded fabrics,
// lost feedback, vSwitch restarts mid-traffic, multi-tenant churn, flash
// crowds, and k-ary fat-trees under ECMP with link failures, flaps, and
// gray loss.
func Catalog() []Spec {
	return []Spec{
		{
			Name:  "baseline",
			Title: "Dumbbell bulk pairs + RTT prober on a clean fabric",
			Paper: "Figure 8 (§5.1): AC/DC matches DCTCP's RTT at CUBIC's throughput",
			Topo:  TopoSpec{Kind: "dumbbell", Hosts: 5},
			Workloads: []WorkloadSpec{
				{Kind: "bulk-pairs"},
				{Kind: "prober", From: 0, To: 5},
			},
			Audit: true,
			Checks: []Check{
				// CUBIC is exempt: its unfairness on a shared bottleneck is
				// the paper's Figure 1 motivation, not a suite defect.
				{Scheme: "dctcp", Metric: "fairness", Min: fp(0.8)},
				{Scheme: "acdc", Metric: "fairness", Min: fp(0.8)},
				{Metric: "tput_avg_gbps", Min: fp(1.0)},
				// CUBIC's buffer-filling RTT leaves very few ping-pong rounds
				// in a short window; ≥1 still proves the prober stayed alive.
				{Metric: "rtt_n", Min: fp(1)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{
				Hosts: 2, Warmup: d(5 * sim.Millisecond), Measure: d(15 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "bulk-pairs"},
					{Kind: "prober", From: 0, To: 2},
				},
			},
		},
		{
			Name:  "incast-heavy",
			Title: "16:1 incast into one downlink with a prober riding through it",
			Paper: "Figures 18–19 (§5.2): incast fan-in with the byte-granularity RWND floor",
			Topo:  TopoSpec{Kind: "star", Hosts: 18},
			Workloads: []WorkloadSpec{
				{Kind: "incast", Senders: 16},
				{Kind: "prober", From: 17, To: 16},
			},
			MinRwndBytes: (9000 - 40) / 2,
			Audit:        true,
			Warmup:       d(10 * sim.Millisecond),
			Measure:      d(30 * sim.Millisecond),
			Checks: []Check{
				{Metric: "rtt_n", Min: fp(1)},
				{Scheme: "acdc", Metric: "fairness", Min: fp(0.9)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
				// The RWND rewrite is the enforcement act (§3.3).
				{Scheme: "acdc", Metric: "ctr_rwnd_rewrites_total", Min: fp(1)},
			},
			Smoke: &Adjust{
				Hosts: 6, Warmup: d(5 * sim.Millisecond), Measure: d(10 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "incast", Senders: 4},
					{Kind: "prober", From: 5, To: 4},
				},
			},
		},
		{
			Name:  "high-load",
			Title: "Concurrent-stride mix: standing 4:1 background load + periodic mice",
			Paper: "Figure 21 (§5.2): mice FCTs under the concurrent-stride workload",
			Topo:  TopoSpec{Kind: "star", Hosts: 17},
			Workloads: []WorkloadSpec{
				{Kind: "stride"},
			},
			Audit:   true,
			Warmup:  d(10 * sim.Millisecond),
			Measure: d(40 * sim.Millisecond),
			Checks: []Check{
				{Metric: "mice_n", Min: fp(50)},
				{Metric: "bg_n", Min: fp(1)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{
				Hosts: 9, Warmup: d(5 * sim.Millisecond), Measure: d(10 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "stride", Bytes: 2 << 20},
				},
			},
		},
		{
			Name:  "degraded-latency",
			Title: "Dumbbell under per-packet jitter (loaded but undamaged fabric)",
			Paper: "beyond the figures: §4 enforcement when RTT estimates wobble",
			Topo:  TopoSpec{Kind: "dumbbell", Hosts: 3},
			Workloads: []WorkloadSpec{
				{Kind: "bulk-pairs"},
				{Kind: "prober", From: 0, To: 3},
			},
			Faults: "jitter",
			Audit:  true,
			Checks: []Check{
				{Metric: "fairness", Min: fp(0.7)},
				// Jittered ACK clocking costs AC/DC real throughput; the check
				// only asserts the fabric stays usable, the baseline tracks it.
				{Metric: "tput_avg_gbps", Min: fp(0.5)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{Warmup: d(5 * sim.Millisecond), Measure: d(15 * sim.Millisecond)},
		},
		{
			Name:  "lossy-link",
			Title: "Dumbbell with 1% random loss (recovery paths under real drops)",
			Paper: "beyond the figures: §3.1 loss recovery under injected drops",
			Topo:  TopoSpec{Kind: "dumbbell", Hosts: 3},
			Workloads: []WorkloadSpec{
				{Kind: "bulk-pairs"},
				{Kind: "prober", From: 0, To: 3},
			},
			Faults: "loss",
			Audit:  true,
			Checks: []Check{
				{Metric: "tput_avg_gbps", Min: fp(0.2)},
				{Scheme: "acdc", Metric: "ctr_fault_drops_total", Min: fp(1)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{Warmup: d(5 * sim.Millisecond), Measure: d(15 * sim.Millisecond)},
		},
		{
			Name:  "feedback-blackout",
			Title: "AC/DC with every PACK/FACK dropped: fail-open must hold",
			Paper: "beyond the figures: §3.2 feedback channel loss tolerance",
			Topo:  TopoSpec{Kind: "dumbbell", Hosts: 3},
			Workloads: []WorkloadSpec{
				{Kind: "bulk-pairs"},
				{Kind: "prober", From: 0, To: 3},
			},
			Schemes: []string{"acdc"},
			Faults:  "feedback-loss",
			Audit:   true,
			Checks: []Check{
				{Metric: "tput_avg_gbps", Min: fp(0.5)},
				// PACK rides on data ACKs here, so blackout shows up as option
				// strips rather than whole-packet feedback drops.
				{Metric: "ctr_fault_feedback_strips_total", Min: fp(1)},
				{Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{Warmup: d(5 * sim.Millisecond), Measure: d(15 * sim.Millisecond)},
		},
		{
			Name:  "rolling-restart",
			Title: "Warm vSwitch restarts every 10ms while traffic flows",
			Paper: "beyond the figures: deployability — upgrades without draining",
			Topo:  TopoSpec{Kind: "dumbbell", Hosts: 3},
			Workloads: []WorkloadSpec{
				{Kind: "bulk-pairs"},
				{Kind: "prober", From: 0, To: 3},
			},
			Schemes: []string{"acdc"},
			Restart: "warm@5ms,every=10ms,down=20us",
			Audit:   true,
			Trials:  2,
			Checks: []Check{
				{Metric: "tput_avg_gbps", Min: fp(1.0)},
				{Metric: "ctr_vswitch_restarts_total", Min: fp(2)},
				{Metric: "ctr_flows_resynced_total", Min: fp(1)},
				{Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{Warmup: d(5 * sim.Millisecond), Measure: d(15 * sim.Millisecond)},
		},
		{
			Name:  "mixed-tenant",
			Title: "Three churning tenants sharing the fabric with a partition/aggregate app",
			Paper: "beyond the figures: the shared-cloud setting of §1 under tenant churn",
			Topo:  TopoSpec{Kind: "star", Hosts: 12},
			Workloads: []WorkloadSpec{
				{Kind: "tenant-churn", Tenants: 3, HostsPerTenant: 4},
				{Kind: "partagg", Senders: 5, Period: d(2 * sim.Millisecond)},
			},
			Audit: true,
			Checks: []Check{
				{Metric: "churn_departures", Min: fp(1)},
				{Metric: "mice_n", Min: fp(10)},
				{Metric: "qct_n", Min: fp(3)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{
				Hosts: 6, Warmup: d(5 * sim.Millisecond), Measure: d(20 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "tenant-churn", Tenants: 2, HostsPerTenant: 2},
					{Kind: "partagg", Senders: 3, Period: d(2 * sim.Millisecond)},
				},
			},
		},
		{
			Name:  "flash-crowd",
			Title: "Periodic request waves from 12 senders into one hot host",
			Paper: "beyond the figures: transient incast (§5.2's pattern, bursty in time)",
			Topo:  TopoSpec{Kind: "star", Hosts: 14},
			Workloads: []WorkloadSpec{
				{Kind: "flash-crowd", Senders: 12},
				{Kind: "prober", From: 13, To: 12},
			},
			Audit: true,
			Checks: []Check{
				{Metric: "flash_waves", Min: fp(5)},
				{Metric: "rtt_n", Min: fp(10)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{
				Hosts: 6, Warmup: d(5 * sim.Millisecond), Measure: d(15 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "flash-crowd", Senders: 4},
					{Kind: "prober", From: 5, To: 4},
				},
			},
		},
		{
			Name:  "fabric-incast",
			Title: "Cross-pod 12:1 incast converging on one fat-tree ToR downlink",
			Paper: "beyond the figures: §5.2's incast pattern at fabric scale (k=4 fat-tree)",
			Topo:  TopoSpec{Kind: "fattree", K: 4},
			Workloads: []WorkloadSpec{
				{Kind: "incast", Senders: 12},
				{Kind: "prober", From: 15, To: 12},
			},
			MinRwndBytes: (9000 - 40) / 2,
			Audit:        true,
			Warmup:       d(10 * sim.Millisecond),
			Measure:      d(30 * sim.Millisecond),
			Checks: []Check{
				{Metric: "rtt_n", Min: fp(1)},
				{Scheme: "acdc", Metric: "fairness", Min: fp(0.8)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
				// A clean fabric must stay clean: no failure-path counters.
				{Metric: "fabric_link_downs", Max: fp(0)},
				{Metric: "fabric_blackholes", Max: fp(0)},
			},
			Smoke: &Adjust{
				Warmup: d(5 * sim.Millisecond), Measure: d(10 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "incast", Senders: 6},
					{Kind: "prober", From: 15, To: 6},
				},
			},
		},
		{
			Name:  "ecmp-imbalance",
			Title: "Concurrent stride across all four pods: ECMP hash spread under load",
			Paper: "beyond the figures: §2's multi-path fabrics, where hash imbalance skews enforcement",
			Topo:  TopoSpec{Kind: "fattree", K: 4},
			Workloads: []WorkloadSpec{
				{Kind: "stride"},
			},
			Audit:   true,
			Warmup:  d(10 * sim.Millisecond),
			Measure: d(30 * sim.Millisecond),
			Checks: []Check{
				{Metric: "mice_n", Min: fp(20)},
				{Metric: "bg_n", Min: fp(1)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
				{Metric: "fabric_blackholes", Max: fp(0)},
			},
			Smoke: &Adjust{
				Warmup: d(5 * sim.Millisecond), Measure: d(10 * sim.Millisecond),
				Workloads: []WorkloadSpec{
					{Kind: "stride", Bytes: 2 << 20},
				},
			},
		},
		{
			Name:  "tor-failure",
			Title: "ToR dies mid-transfer while a core uplink flaps: ECMP must fail over",
			Paper: "beyond the figures: enforcement surviving the fabric's own fault domains",
			Topo:  TopoSpec{Kind: "fattree", K: 4},
			Workloads: []WorkloadSpec{
				{Kind: "stride"},
			},
			Fabric:  "switch-down@25ms,switch=p3-tor1,for=5ms;flap@15ms,link=p0-agg0>core0,down=300us,up=2ms,count=3",
			Audit:   true,
			Warmup:  d(10 * sim.Millisecond),
			Measure: d(40 * sim.Millisecond),
			Checks: []Check{
				{Metric: "mice_n", Min: fp(10)},
				{Metric: "fabric_failovers", Min: fp(1)},
				// switch-down severs all 8 of p3-tor1's links + 3 flap edges.
				{Metric: "fabric_link_downs", Min: fp(4)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{
				Warmup: d(5 * sim.Millisecond), Measure: d(20 * sim.Millisecond),
				Fabric: "switch-down@10ms,switch=p3-tor1,for=2ms;flap@6ms,link=p0-agg0>core0,down=200us,up=1ms,count=3",
			},
		},
		{
			Name:  "gray-spine",
			Title: "Silent 2% gray loss on every core0 downlink for most of the run",
			Paper: "beyond the figures: gray failures the fabric never reports",
			Topo:  TopoSpec{Kind: "fattree", K: 4},
			Workloads: []WorkloadSpec{
				{Kind: "stride"},
				{Kind: "prober", From: 0, To: 12},
			},
			Fabric:  "gray@10ms,link=core0>*,loss=0.02,for=35ms",
			Audit:   true,
			Warmup:  d(10 * sim.Millisecond),
			Measure: d(30 * sim.Millisecond),
			Checks: []Check{
				{Metric: "fabric_gray_drops", Min: fp(1)},
				{Metric: "mice_n", Min: fp(10)},
				{Scheme: "acdc", Metric: "audit_violations", Max: fp(0)},
			},
			Smoke: &Adjust{
				Warmup: d(5 * sim.Millisecond), Measure: d(10 * sim.Millisecond),
				Fabric: "gray@5ms,link=core0>*,loss=0.02,for=8ms",
				Workloads: []WorkloadSpec{
					{Kind: "stride", Bytes: 2 << 20},
					{Kind: "prober", From: 0, To: 12},
				},
			},
		},
	}
}

// CatalogByName returns the named catalog scenarios, in catalog order when
// names is empty (the whole suite) and in the given order otherwise.
func CatalogByName(names ...string) ([]Spec, error) {
	all := Catalog()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Spec, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			catalogNames := make([]string, 0, len(all))
			for _, c := range all {
				catalogNames = append(catalogNames, c.Name)
			}
			if near := faults.Nearest(n, catalogNames); near != "" {
				return nil, fmt.Errorf("scenario: unknown scenario %q (did you mean %q?)", n, near)
			}
			return nil, fmt.Errorf("scenario: unknown scenario %q (run with `list` for the catalog)", n)
		}
		out = append(out, s)
	}
	return out, nil
}

// CatalogHelp renders the catalog as an aligned listing for `-scenario list`
// style flag help, mirroring faults.ProfilesHelp and faults.RestartHelp.
func CatalogHelp() string {
	var b strings.Builder
	b.WriteString("scenarios (acdcsuite [names...]):\n")
	for _, s := range Catalog() {
		fmt.Fprintf(&b, "  %-18s %s\n", s.Name, s.Title)
		fmt.Fprintf(&b, "  %-18s   schemes=%s  paper: %s\n", "", strings.Join(s.withDefaults().Schemes, ","), s.Paper)
	}
	b.WriteString("spec plan syntax: acdcsim -faults list, acdcsim -restart list, acdcsim -fabric list\n")
	return b.String()
}
