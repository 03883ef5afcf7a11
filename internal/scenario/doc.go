// Package scenario is the declarative scenario suite: named, reproducible
// experiment setups whose results are gated against checked-in baselines.
//
// A [Spec] is plain data — JSON-serializable, loadable from a config file via
// [LoadSpecs] — composing the repo's building blocks:
//
//   - a topology from internal/topo ([TopoSpec]: star, dumbbell, parking
//     lot, fat-tree)
//   - a workload mix from internal/workload ([WorkloadSpec]: bulk pairs,
//     incast, prober, partition/aggregate, stride, trace-driven, flash-crowd,
//     tenant-churn)
//   - a fault profile, vSwitch restart plan and fabric fault-domain plan
//     from internal/faults (the same syntax as acdcsim's -faults, -restart
//     and -fabric flags; a restart plan may name only hosts the topology
//     has)
//   - expected-invariant assertions ([Check]) backed by internal/audit and
//     the runner's metric namespace
//
// A spec installs no per-flow policy: every flow runs the vSwitch's default.
// §3.4's differentiation is Figure 13's (internal/experiments), and the
// daemon installs policies live (internal/daemon).
//
// [Run] executes the scenarios × schemes × trials matrix through the
// experiments.Sweep worker pool — each scheme×trial in its own simulator, so
// parallel and sequential runs produce identical results — and aggregates
// per-trial fleet telemetry with metrics.Merge.
//
// # Regression gating
//
// [BaselineFile] holds blessed metric values per mode ("full", "smoke") →
// scenario → scheme → metric. [BaselineFile.Diff] compares a run against the
// blessed values using per-metric tolerance bands ([Tolerance]): exact for
// audit_violations, tight for throughput, widest for tail percentiles. The
// simulator is deterministic given the seed, so rerunning an unchanged tree
// reproduces every blessed value exactly; a diff is a real behaviour change,
// to be either fixed or re-blessed ([BaselineFile.Bless]).
//
// [Catalog] is the built-in suite (see SCENARIOS.md for the runbook and
// EXPERIMENTS.md for per-scenario documentation); cmd/acdcsuite is the CLI.
package scenario
