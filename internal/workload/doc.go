// Package workload drives traffic through a topo.Net the way the paper's
// benchmark tools do, and measures what the paper measures — flow completion
// times at the receiver, application-level RTT, and per-flow delivered bytes.
//
// # Connection plumbing
//
// Everything is built on two primitives:
//
//   - Manager owns the listen/dial plumbing: every host listens on one port,
//     and accepted connections are matched back to the Messenger that dialed
//     them. Open(from, to) returns a persistent one-direction stream; once
//     both of its ends have seen EOF, a later Open reuses its Messenger.
//   - Messenger is a message-oriented view of that stream: SendMessage
//     queues n bytes and reports the flow completion time when the
//     *receiver's* in-order delivered count crosses the message boundary
//     (the paper's "simple TCP application ... to measure FCTs"); SendBulk
//     queues untracked bytes for long-lived background flows.
//
// # Drivers
//
// On top of those, one driver per traffic pattern used by the evaluation
// (§5.2) and the scenario suite (internal/scenario):
//
//   - Bulk / Incast: long-lived flows; the many-to-one §5.2 incast.
//   - Prober: sockperf-style ping-pong RTT probe (Figures 2, 8, 16, 19, 20).
//   - PartitionAggregate: query fan-out/fan-in with query-completion times,
//     the application behind incast (Vasudevan et al.).
//   - Stride / Shuffle / TraceDriven: the §5.2 macro-workloads over the
//     paper's parameters or the web-search/data-mining size distributions.
//   - FlashCrowd: periodic near-synchronized request waves against one hot
//     host — transient incast with a completion-tail that exposes schemes
//     needing standing queues or RTOs to absorb bursts.
//   - TenantChurn: disjoint tenant host-groups running background+mice
//     traffic while tenants depart and re-arrive with fresh connections —
//     the flow-table lifecycle (setup, idle GC, re-adoption) under
//     continuously shifting load.
//
// # Determinism
//
// Drivers draw any randomness (start offsets, shuffle orders) from the
// simulation's own seeded RNG (Net.Sim.Rand()), never from package math/rand
// or wall time, so a fixed topology seed replays the identical packet-level
// run — the property the scenario suite's regression baselines depend on.
package workload
