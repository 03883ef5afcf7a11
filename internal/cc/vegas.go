package cc

// Vegas (Brakmo & Peterson, 1994) is delay-based: it compares the expected
// rate (cwnd/baseRTT) with the actual rate (cwnd/RTT) and holds the
// difference between α=2 and β=4 packets of queueing.
type Vegas struct{ Base }

type vegasState struct {
	baseRTT int64 // min RTT seen, ns
	minRTT  int64 // min RTT this cwnd-epoch
	cntRTT  int
}

const (
	vegasAlpha = 2
	vegasBeta  = 4
	vegasGamma = 1
)

// Name implements Algorithm.
func (*Vegas) Name() string { return "vegas" }

// Init implements Algorithm.
func (*Vegas) Init(c *Ctx) { initPriv(c, vegasState{baseRTT: 1 << 62, minRTT: 1 << 62}) }

func (v *Vegas) state(c *Ctx) *vegasState {
	s, ok := c.priv.(*vegasState)
	if !ok { // Init never ran on c
		v.Init(c)
		s = c.priv.(*vegasState)
	}
	return s
}

// PktsAcked implements Algorithm: collect RTT samples.
func (v *Vegas) PktsAcked(c *Ctx, rtt int64) {
	if rtt <= 0 {
		return
	}
	s := v.state(c)
	if rtt < s.baseRTT {
		s.baseRTT = rtt
	}
	if rtt < s.minRTT {
		s.minRTT = rtt
	}
	s.cntRTT++
}

// CongAvoid implements Algorithm. Vegas adjusts once per RTT; the stack
// calls WindowBoundary at that cadence, so per-ACK we only slow-start when
// below the γ threshold.
func (v *Vegas) CongAvoid(c *Ctx, acked int) {
	s := v.state(c)
	if s.cntRTT == 0 {
		// No samples yet: behave like Reno.
		renoGrow(c, acked)
	}
}

// WindowBoundary runs the once-per-RTT Vegas update.
func (v *Vegas) WindowBoundary(c *Ctx) {
	s := v.state(c)
	if s.cntRTT < 1 || s.baseRTT >= 1<<62 {
		return
	}
	rtt := s.minRTT
	// diff = cwnd·(rtt - baseRTT)/rtt, in packets of queue occupancy.
	diff := c.Cwnd * float64(rtt-s.baseRTT) / float64(rtt)
	if c.InSlowStart() {
		if diff > vegasGamma {
			// Too much queueing: leave slow start.
			c.Ssthresh = min(c.Ssthresh, c.Cwnd-1)
			c.Cwnd = c.Cwnd - c.Cwnd/8
		} else {
			c.Cwnd++
		}
	} else {
		switch {
		case diff < vegasAlpha:
			c.Cwnd++
		case diff > vegasBeta:
			c.Cwnd--
			if c.Ssthresh > c.Cwnd {
				c.Ssthresh = c.Cwnd
			}
		}
	}
	if c.Cwnd < 2 {
		c.Cwnd = 2
	}
	s.minRTT = 1 << 62
	s.cntRTT = 0
}

// SsthreshOnLoss implements Algorithm: Reno-style halving.
func (*Vegas) SsthreshOnLoss(c *Ctx) float64 { return max(c.Cwnd/2, 2) }
