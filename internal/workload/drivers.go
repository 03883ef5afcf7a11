package workload

import (
	"acdc/internal/sim"
	"acdc/internal/stats"
	"acdc/internal/trace"
)

// FCTs separates mice and background completion-time samples the way §5.2's
// figures do.
type FCTs struct {
	Mice       stats.Sample
	Background stats.Sample
}

// Bulk starts one untracked long-lived flow and returns its messenger.
func Bulk(m *Manager, from, to int) *Messenger {
	ms := m.Open(from, to)
	ms.SendBulk(1 << 42)
	return ms
}

// Incast starts n senders blasting one receiver (the §5.2 many-to-one
// experiment). Hosts 0..n-1 send, host `recv` receives. Returns the flows.
func Incast(m *Manager, senders []int, recv int) []*Messenger {
	flows := make([]*Messenger, 0, len(senders))
	for _, s := range senders {
		flows = append(flows, Bulk(m, s, recv))
	}
	return flows
}

// StrideConfig parameterizes the concurrent-stride workload. The paper runs
// 17 servers for 10 minutes with 512MB background flows and 16KB mice every
// 100ms; defaults here are time-scaled so the dynamics (many overlapping
// background flows + latency-sensitive mice) are preserved at simulable cost.
type StrideConfig struct {
	N          int          // servers (paper: 17)
	BgBytes    int64        // background transfer size (paper: 512MB)
	MiceBytes  int64        // mice message size (paper: 16KB)
	MicePeriod sim.Duration // paper: 100ms
}

// Stride launches the concurrent-stride workload: server i sends BgBytes to
// servers [i+1, i+4] mod N sequentially in a loop, and MiceBytes to server
// (i+8) mod N every MicePeriod.
func Stride(m *Manager, cfg StrideConfig, fcts *FCTs) {
	n := cfg.N
	for i := 0; i < n; i++ {
		i := i
		// Background: four concurrent streams (one per destination), each
		// sending BgBytes transfers back to back — the "concurrent" in
		// concurrent stride. Every host's downlink sees a standing 4:1 load.
		for j := 0; j < 4; j++ {
			conn := m.Open(i, (i+1+j)%n)
			var next func()
			next = func() {
				conn.SendMessage(cfg.BgBytes, func(fct sim.Duration) {
					fcts.Background.Add(float64(fct))
					next()
				})
			}
			next()
		}

		// Mice: periodic small messages to i+8.
		mice := m.Open(i, (i+8)%n)
		var tick func()
		tick = func() {
			mice.SendMessage(cfg.MiceBytes, func(fct sim.Duration) {
				fcts.Mice.Add(float64(fct))
			})
			m.Net.Sim.Schedule(cfg.MicePeriod, tick)
		}
		offset := sim.Duration(m.Net.Sim.Rand().Int63n(int64(cfg.MicePeriod)))
		m.Net.Sim.Schedule(offset, tick)
	}
}

// ShuffleConfig parameterizes the shuffle workload: every server sends
// BgBytes to every other server in random order, at most Concurrency
// transfers at a time, plus the same mice pattern as stride.
type ShuffleConfig struct {
	N           int
	BgBytes     int64
	Concurrency int
	MiceBytes   int64
	MicePeriod  sim.Duration
}

// Shuffle launches the shuffle workload. onDone (optional) fires when every
// server finishes its transfer list.
func Shuffle(m *Manager, cfg ShuffleConfig, fcts *FCTs, onDone func()) {
	n := cfg.N
	remaining := n
	for i := 0; i < n; i++ {
		i := i
		order := m.Net.Sim.Rand().Perm(n - 1)
		dsts := make([]int, 0, n-1)
		for _, o := range order {
			d := o
			if d >= i {
				d++
			}
			dsts = append(dsts, d)
		}
		idx := 0
		var launch func()
		active := 0
		launch = func() {
			for active < cfg.Concurrency && idx < len(dsts) {
				d := dsts[idx]
				idx++
				active++
				ms := m.Open(i, d)
				ms.SendMessage(cfg.BgBytes, func(fct sim.Duration) {
					fcts.Background.Add(float64(fct))
					active--
					if idx < len(dsts) {
						launch()
					} else if active == 0 {
						remaining--
						if remaining == 0 && onDone != nil {
							onDone()
						}
					}
				})
			}
		}
		launch()

		mice := m.Open(i, (i+8)%n)
		var tick func()
		tick = func() {
			mice.SendMessage(cfg.MiceBytes, func(fct sim.Duration) {
				fcts.Mice.Add(float64(fct))
			})
			m.Net.Sim.Schedule(cfg.MicePeriod, tick)
		}
		m.Net.Sim.Schedule(sim.Duration(m.Net.Sim.Rand().Int63n(int64(cfg.MicePeriod))), tick)
	}
}

// TraceConfig parameterizes the trace-driven workload: AppsPerServer closed-
// loop applications per server, each holding a connection to every other
// server, drawing message sizes from Dist and sending each to a uniformly
// random destination in sequence.
type TraceConfig struct {
	N             int
	AppsPerServer int // paper: 5
	Dist          *trace.Dist
	// MiceCutoff classifies a message as mice for FCT reporting (paper: 10KB).
	MiceCutoff int64
}

// TraceDriven launches the trace-driven workload.
func TraceDriven(m *Manager, cfg TraceConfig, fcts *FCTs) {
	rng := m.Net.Sim.Rand()
	for i := 0; i < cfg.N; i++ {
		for a := 0; a < cfg.AppsPerServer; a++ {
			// Each app owns one connection per destination.
			conns := make(map[int]*Messenger, cfg.N-1)
			for d := 0; d < cfg.N; d++ {
				if d != i {
					conns[d] = m.Open(i, d)
				}
			}
			var next func()
			next = func() {
				size := cfg.Dist.Sample(rng)
				d := rng.Intn(cfg.N - 1)
				if d >= i {
					d++
				}
				conns[d].SendMessage(size, func(fct sim.Duration) {
					if size < cfg.MiceCutoff {
						fcts.Mice.Add(float64(fct))
					} else {
						fcts.Background.Add(float64(fct))
					}
					next()
				})
			}
			// Stagger app start times to avoid synchronized bursts.
			m.Net.Sim.Schedule(sim.Duration(rng.Int63n(int64(sim.Millisecond))), next)
		}
	}
}
