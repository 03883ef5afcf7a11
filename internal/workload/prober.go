package workload

import (
	"acdc/internal/sim"
	"acdc/internal/stats"
)

// Prober measures application-level TCP round-trip time the way sockperf's
// ping-pong mode does: a small request, a small immediate response on the
// same connection, next request only after the response arrives. Exactly one
// exchange is ever in flight, so each sample is an isolated round trip whose
// value is dominated by the queues the probe crosses — which is what the
// paper's RTT CDFs (Figures 2, 8, 16, 19, 20) show.
//
// The connection should be dialed *before* the fabric is congested (the
// paper's sockperf connections are long-lived): NewProber performs the dial,
// Start sends the first probe. Samples are in nanoseconds; divide by 1e6 for
// the milliseconds the figures use. Spacing throttles the probe rate; the
// default back-to-back mode yields the most samples but never more than one
// outstanding exchange, so the probe itself does not congest the path.
type Prober struct {
	ms      *Messenger
	Samples *stats.Sample
	// Spacing inserts idle time between a response and the next request;
	// zero = back-to-back (sockperf default).
	Spacing sim.Duration
	// MsgBytes is the probe size (default 64, sockperf's default payload).
	MsgBytes int64

	respEnd int64
	started sim.Time
	stopped bool
}

// NewProber creates a prober over a fresh connection from → to.
func NewProber(m *Manager, from, to int) *Prober {
	p := &Prober{ms: m.Open(from, to), Samples: &stats.Sample{}, MsgBytes: 64}
	// Response tracking: each server reply adds MsgBytes to the client-side
	// delivered stream.
	p.ms.Cli.OnRecv = func(int) { p.onResponse() }
	p.ms.OnMessage = func(int64) {
		// Request fully arrived at server: send the pong.
		p.respEnd += p.MsgBytes
		p.ms.Srv().Send(p.MsgBytes)
	}
	return p
}

// Start begins probing.
func (p *Prober) Start() { p.sendProbe() }

// Stop ends probing after the in-flight exchange.
func (p *Prober) Stop() { p.stopped = true }

func (p *Prober) sendProbe() {
	if p.stopped {
		return
	}
	p.started = p.ms.m.Net.Sim.Now()
	p.ms.SendMessage(p.MsgBytes, nil)
}

func (p *Prober) onResponse() {
	if p.ms.Cli.Delivered >= p.respEnd && p.respEnd > 0 {
		p.Samples.Add(float64(p.ms.m.Net.Sim.Now() - p.started))
		if p.Spacing > 0 {
			p.ms.m.Net.Sim.Schedule(p.Spacing, p.sendProbe)
		} else {
			p.sendProbe()
		}
	}
}
