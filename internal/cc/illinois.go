package cc

// Illinois (Liu, Başar, Srikant, 2008) is a loss-delay hybrid: additive
// increase α(da) shrinks and multiplicative decrease β(da) grows as the
// average queueing delay da rises, concave in between. Constants follow
// Linux's tcp_illinois.c.
type Illinois struct{ Base }

type illinoisState struct {
	sumRTT   int64
	cntRTT   int
	baseRTT  int64
	maxRTT   int64
	alpha    float64
	beta     float64
	rttAbove bool
	rttLow   int
}

const (
	illAlphaMin = 0.1  // ALPHA_MIN = 1/10 pkt
	illAlphaMax = 10.0 // ALPHA_MAX
	illBetaMin  = 0.125
	illBetaMax  = 0.5
	illTheta    = 5
)

// Name implements Algorithm.
func (*Illinois) Name() string { return "illinois" }

// Init implements Algorithm.
func (*Illinois) Init(c *Ctx) {
	initPriv(c, illinoisState{baseRTT: 1 << 62, alpha: illAlphaMax, beta: illBetaMin})
}

func (il *Illinois) state(c *Ctx) *illinoisState {
	s, ok := c.priv.(*illinoisState)
	if !ok { // Init never ran on c
		il.Init(c)
		s = c.priv.(*illinoisState)
	}
	return s
}

// PktsAcked implements Algorithm.
func (il *Illinois) PktsAcked(c *Ctx, rtt int64) {
	if rtt <= 0 {
		return
	}
	s := il.state(c)
	if rtt < s.baseRTT {
		s.baseRTT = rtt
	}
	if rtt > s.maxRTT {
		s.maxRTT = rtt
	}
	s.sumRTT += rtt
	s.cntRTT++
}

// WindowBoundary recomputes α and β from the average queueing delay, once
// per RTT.
func (il *Illinois) WindowBoundary(c *Ctx) {
	s := il.state(c)
	if s.cntRTT == 0 || s.baseRTT >= 1<<62 {
		return
	}
	avgRTT := s.sumRTT / int64(s.cntRTT)
	da := avgRTT - s.baseRTT   // current queueing delay
	dm := s.maxRTT - s.baseRTT // max queueing delay
	s.sumRTT, s.cntRTT = 0, 0
	if dm <= 0 {
		s.alpha = illAlphaMax
		s.beta = illBetaMin
		return
	}
	// α: max when da below 5% of dm, then decaying hyperbolically.
	d1 := dm / 100 * illTheta
	if da <= d1 {
		s.rttLow++
		if s.rttLow >= illTheta {
			s.alpha = illAlphaMax
		}
	} else {
		s.rttLow = 0
		// α(da) = κ1/(κ2 + da) with κ chosen so α(d1)=αmax, α(dm)=αmin.
		k1 := float64(dm-d1) * illAlphaMin * illAlphaMax / (illAlphaMax - illAlphaMin)
		k2 := k1/illAlphaMax - float64(d1)
		s.alpha = k1 / (k2 + float64(da))
		if s.alpha > illAlphaMax {
			s.alpha = illAlphaMax
		}
		if s.alpha < illAlphaMin {
			s.alpha = illAlphaMin
		}
	}
	// β: linear between d2=0.1dm and d3=0.8dm.
	d2 := float64(dm) * 0.1
	d3 := float64(dm) * 0.8
	switch {
	case float64(da) <= d2:
		s.beta = illBetaMin
	case float64(da) >= d3:
		s.beta = illBetaMax
	default:
		s.beta = illBetaMin + (illBetaMax-illBetaMin)*(float64(da)-d2)/(d3-d2)
	}
}

// CongAvoid implements Algorithm: slow start, then cwnd += α/cwnd per ACK.
func (il *Illinois) CongAvoid(c *Ctx, acked int) {
	s := il.state(c)
	if c.InSlowStart() {
		renoGrow(c, acked)
		return
	}
	ackedPkts := float64(acked) / float64(c.MSS)
	c.Cwnd += s.alpha * ackedPkts / c.Cwnd
}

// SsthreshOnLoss implements Algorithm: cwnd·(1−β).
func (il *Illinois) SsthreshOnLoss(c *Ctx) float64 {
	s := il.state(c)
	return max(c.Cwnd*(1-s.beta), 2)
}

// OnRTO implements Algorithm: reset delay tracking.
func (il *Illinois) OnRTO(c *Ctx) {
	s := il.state(c)
	s.alpha = illAlphaMax
	s.beta = illBetaMin
	s.rttLow = 0
}
