// Package acdc is a from-scratch Go reproduction of "AC/DC TCP: Virtual
// Congestion Control Enforcement for Datacenter Networks" (He et al.,
// SIGCOMM 2016): per-flow congestion control enforced in the virtual switch
// over arbitrary guest TCP stacks, together with the full substrate needed
// to evaluate it — a discrete-event datacenter network simulator, a TCP
// endpoint implementation with seven congestion-control variants, the
// paper's topologies and workloads, and a harness that regenerates every
// table and figure in the paper's evaluation.
//
// Package overview, bottom layer first:
//
//   - internal/sim — the discrete-event core: ns clock, event scheduler
//     (near-future wheel ahead of a heap), cancellable timers,
//     deterministic seeded RNG.
//   - internal/packet — wire-format IPv4/TCP/UDP headers, TCP options
//     (MSS, WScale, SACK, the AC/DC PACK/FACK options), full and
//     incremental checksums, ECN codepoints.
//   - internal/netsim — the fabric: links, output-queued switches with a
//     shared dynamic buffer, WRED/ECN marking, token-bucket shapers, and
//     hosts exposing the vSwitch hook points.
//   - internal/cc — guest congestion-control laws (CUBIC, NewReno, DCTCP,
//     Vegas, Illinois, HighSpeed).
//   - internal/tcpstack — guest TCP endpoints: handshake, SACK recovery,
//     RTO, delayed ACKs, window scaling, classic+DCTCP ECN, TSQ, and the
//     non-conforming IgnoreRwnd stack used to test policing.
//   - internal/core — the paper's contribution: the AC/DC vSwitch module.
//     Flow table, sender module (virtual DCTCP, RWND rewriting, policing),
//     receiver module (PACK/FACK feedback, ECN stripping), UDP tunnels.
//   - internal/metrics — the datapath observability layer: plain-word
//     counters/gauges/histograms owned by the simulation goroutine,
//     snapshots with delta/merge, text/JSON encoders.
//   - internal/udp — minimal datagram endpoints for the tunnel demos.
//   - internal/topo — the paper's topologies (dumbbell, parking lot, star).
//   - internal/workload — traffic and measurement: bulk/incast/stride/
//     shuffle/trace-driven apps, FCT tracking, RTT probing.
//   - internal/stats — percentiles, CDFs, Jain's fairness, tables.
//   - internal/trace — web-search/data-mining flow-size distributions.
//   - internal/experiments — one Experiment per table/figure, plus per-run
//     datapath-metrics telemetry.
//
// Binaries: cmd/acdcsim (run experiments by ID; -report for the full
// Markdown report, -metrics for its telemetry), cmd/acdctrace (annotated
// per-packet datapath trace). The examples/ directory holds five
// self-contained demos, starting with examples/quickstart.
//
// See README.md for a tour, ARCHITECTURE.md for the package map and packet
// lifecycle, DESIGN.md for the system inventory and substitutions, and
// EXPERIMENTS.md for paper-vs-measured results. The benchmarks in
// bench_test.go regenerate each experiment and ablation (go test -bench=.);
// the bench/ module measures the simulator end to end and per layer,
// including the Figure 11/12 per-packet datapath cost.
package acdc
