package cc

// Timely implements a window-based adaptation of TIMELY (Mittal et al.,
// SIGCOMM 2015), the RTT-gradient congestion control the paper cites
// alongside DCTCP as the state of the art for datacenters. TIMELY is
// natively rate-based; as in several research ports, rate is expressed here
// as a window (rate ≈ cwnd/RTT) so it plugs into a window-clocked stack:
//
//   - RTT below Tlow: additive increase (the queue is empty enough).
//   - RTT above Thigh: multiplicative decrease proportional to overshoot.
//   - Otherwise: steer by the normalized RTT gradient — increase (with HAI
//     after several consecutive negative gradients) when RTTs are falling,
//     back off proportionally when they are rising.
type Timely struct {
	Base
	// TlowNS/ThighNS frame the target queueing band; zero values default to
	// 50µs/500µs (the paper's small-scale settings).
	TlowNS, ThighNS int64
}

type timelyState struct {
	prevRTT    int64
	rttDiff    float64 // EWMA of RTT differences, ns
	negCount   int     // consecutive negative-gradient completions (HAI)
	haveSample bool
}

const (
	timelyAlpha     = 0.875 // EWMA weight on the previous rttDiff
	timelyBeta      = 0.8   // multiplicative decrease factor
	timelyAddend    = 1.0   // additive increase, MSS per RTT
	timelyHAIThresh = 5
)

// Name implements Algorithm.
func (*Timely) Name() string { return "timely" }

// Init implements Algorithm.
func (t *Timely) Init(c *Ctx) { initPriv(c, timelyState{}) }

func (t *Timely) state(c *Ctx) *timelyState {
	s, ok := c.priv.(*timelyState)
	if !ok { // Init never ran on c
		t.Init(c)
		s = c.priv.(*timelyState)
	}
	return s
}

func (t *Timely) tLow() int64 {
	if t.TlowNS > 0 {
		return t.TlowNS
	}
	return 50_000
}

func (t *Timely) tHigh() int64 {
	if t.ThighNS > 0 {
		return t.ThighNS
	}
	return 500_000
}

// PktsAcked implements Algorithm: the whole control law runs on RTT samples.
func (t *Timely) PktsAcked(c *Ctx, rtt int64) {
	if rtt <= 0 {
		return
	}
	s := t.state(c)
	if !s.haveSample {
		s.prevRTT = rtt
		s.haveSample = true
		return
	}
	diff := float64(rtt - s.prevRTT)
	s.prevRTT = rtt
	s.rttDiff = timelyAlpha*s.rttDiff + (1-timelyAlpha)*diff
	minRTT := float64(c.MinRTT)
	if minRTT <= 0 {
		minRTT = float64(rtt)
	}
	gradient := s.rttDiff / minRTT

	// Leave slow start as soon as queueing appears (TIMELY has no loss
	// signal to cap ssthresh, so the RTT band does it).
	if rtt > t.tLow() && c.InSlowStart() {
		c.Ssthresh = c.Cwnd
	}

	perAck := 1.0 / c.Cwnd // scale per-ACK so the law applies ≈once per RTT

	switch {
	case rtt < t.tLow():
		s.negCount = 0
		c.Cwnd += timelyAddend * perAck
	case rtt > t.tHigh():
		s.negCount = 0
		// Back off by how far the RTT overshoots Thigh.
		f := 1 - timelyBeta*(1-float64(t.tHigh())/float64(rtt))*perAck
		c.Cwnd *= f
	case gradient <= 0:
		s.negCount++
		n := 1.0
		if s.negCount >= timelyHAIThresh {
			n = 5 // hyperactive increase
		}
		c.Cwnd += n * timelyAddend * perAck
	default:
		s.negCount = 0
		f := 1 - timelyBeta*gradient*perAck
		if f < 0.5 {
			f = 0.5
		}
		c.Cwnd *= f
	}
	if c.Cwnd < 2 {
		c.Cwnd = 2
	}
}

// CongAvoid implements Algorithm: slow start only; steady-state growth is
// RTT-driven in PktsAcked.
func (t *Timely) CongAvoid(c *Ctx, acked int) {
	if c.InSlowStart() {
		renoGrow(c, acked)
	}
}

// SsthreshOnLoss implements Algorithm: TIMELY's networks are mostly
// lossless; on actual loss fall back to halving.
func (*Timely) SsthreshOnLoss(c *Ctx) float64 { return max(c.Cwnd/2, 2) }
