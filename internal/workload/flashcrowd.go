package workload

import (
	"acdc/internal/sim"
	"acdc/internal/stats"
)

// FlashCrowdConfig parameterizes the flash-crowd workload: periodic waves in
// which every sender in the crowd hits one hot host with a short request at
// (almost) the same instant. It is the bursty cousin of incast — instead of
// long-lived flows standing on the bottleneck, the congestion appears from
// nothing, slams the hot host's downlink for one request's worth of bytes,
// and vanishes until the next wave. What matters is the request completion
// tail: a scheme that needs a standing queue (or a retransmission timeout)
// to absorb the wave shows up immediately at p99.9.
type FlashCrowdConfig struct {
	// Senders are the crowd's host indices.
	Senders []int
	// Hot is the host every request targets.
	Hot int
	// Bytes is the request size (default 64KB — a small object fetch).
	Bytes int64
	// Period is the time between wave starts (default 5ms).
	Period sim.Duration
}

// flashSpread staggers each sender's request uniformly in [0, flashSpread)
// within a wave: real crowds are near- but not perfectly synchronized.
// Offsets are drawn from the simulation RNG, so a fixed seed replays the
// identical arrival pattern.
const flashSpread = 100 * sim.Microsecond

// withDefaults fills unset fields.
func (c FlashCrowdConfig) withDefaults() FlashCrowdConfig {
	if c.Bytes == 0 {
		c.Bytes = 64 << 10
	}
	if c.Period == 0 {
		c.Period = 5 * sim.Millisecond
	}
	return c
}

// FlashCrowd drives the flash-crowd workload over persistent connections
// (one per sender, dialed up front so the waves measure data-path behaviour,
// not handshakes). FCT collects per-request completion times; Waves counts
// waves issued so far.
type FlashCrowd struct {
	// FCT collects one completion-time sample per delivered request.
	FCT stats.Sample
	// Waves counts waves issued (including the in-flight one).
	Waves int

	m       *Manager
	cfg     FlashCrowdConfig
	conns   []*Messenger
	stopped bool
}

// NewFlashCrowd dials one persistent connection per sender to the hot host
// and returns the (not yet started) workload.
func NewFlashCrowd(m *Manager, cfg FlashCrowdConfig) *FlashCrowd {
	cfg = cfg.withDefaults()
	f := &FlashCrowd{m: m, cfg: cfg}
	for _, s := range cfg.Senders {
		f.conns = append(f.conns, m.Open(s, cfg.Hot))
	}
	return f
}

// Start issues the first wave immediately and re-arms every Period.
func (f *FlashCrowd) Start() { f.wave() }

// Stop ends the workload after the in-flight wave.
func (f *FlashCrowd) Stop() { f.stopped = true }

func (f *FlashCrowd) wave() {
	if f.stopped {
		return
	}
	f.Waves++
	rng := f.m.Net.Sim.Rand()
	for _, c := range f.conns {
		c := c
		offset := sim.Duration(rng.Int63n(int64(flashSpread)))
		f.m.Net.Sim.Schedule(offset, func() {
			c.SendMessage(f.cfg.Bytes, func(fct sim.Duration) {
				f.FCT.Add(float64(fct))
			})
		})
	}
	f.m.Net.Sim.Schedule(f.cfg.Period, f.wave)
}
