package cc

import "math"

// Cubic implements CUBIC (Ha, Rhee, Xu; Linux's default since 2.6.19). The
// window grows as a cubic function of time since the last reduction,
// W(t) = C·(t-K)³ + Wmax, with a TCP-friendly lower bound, β=0.7
// multiplicative decrease, and fast convergence.
type Cubic struct{ Base }

type cubicState struct {
	wMax       float64 // window before last reduction (MSS)
	wLastMax   float64 // for fast convergence
	epochStart int64   // ns; 0 = no epoch
	originK    float64 // K in seconds
	originW    float64 // cwnd at epoch start
	tcpCwnd    float64 // TCP-friendly estimate
	ackCnt     float64
}

const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Name implements Algorithm.
func (*Cubic) Name() string { return "cubic" }

// Init implements Algorithm.
func (*Cubic) Init(c *Ctx) { initPriv(c, cubicState{}) }

func (cb *Cubic) state(c *Ctx) *cubicState {
	s, ok := c.priv.(*cubicState)
	if !ok { // Init never ran on c
		cb.Init(c)
		s = c.priv.(*cubicState)
	}
	return s
}

// CongAvoid implements Algorithm.
func (cb *Cubic) CongAvoid(c *Ctx, acked int) {
	s := cb.state(c)
	if c.InSlowStart() {
		renoGrow(c, acked)
		return
	}
	ackedPkts := float64(acked) / float64(c.MSS)
	if s.epochStart == 0 {
		s.epochStart = c.Now
		s.originW = c.Cwnd
		if c.Cwnd < s.wMax {
			// K = cbrt(Wmax·(1-β)/C)
			s.originK = math.Cbrt(s.wMax * (1 - cubicBeta) / cubicC)
			s.originW = c.Cwnd
		} else {
			s.originK = 0
			s.wMax = c.Cwnd
		}
		s.ackCnt = 0
		s.tcpCwnd = c.Cwnd
	}
	// Target window a fixed look-ahead (one SRTT) in the future, like Linux.
	t := float64(c.Now-s.epochStart)/1e9 + float64(c.SRTT)/1e9
	d := t - s.originK
	target := s.wMax + cubicC*d*d*d
	if s.originK == 0 {
		target = s.originW + cubicC*t*t*t
	}
	if target > c.Cwnd {
		c.Cwnd += (target - c.Cwnd) / c.Cwnd * ackedPkts
	} else {
		c.Cwnd += 0.01 * ackedPkts / c.Cwnd // minimal growth, tcp_cubic's 1/(100·cwnd)
	}
	// TCP-friendly region: emulate Reno's throughput with β=0.7:
	// W_tcp grows by 3(1-β)/(1+β) per RTT ≈ 0.529.
	s.ackCnt += ackedPkts
	if s.tcpCwnd > 0 {
		delta := c.Cwnd / (3 * (1 - cubicBeta) / (1 + cubicBeta))
		for s.ackCnt > delta && delta > 0 {
			s.ackCnt -= delta
			s.tcpCwnd++
		}
	}
	if s.tcpCwnd > c.Cwnd {
		c.Cwnd = s.tcpCwnd
	}
}

// SsthreshOnLoss implements Algorithm: β=0.7 decrease with fast convergence.
func (cb *Cubic) SsthreshOnLoss(c *Ctx) float64 {
	s := cb.state(c)
	s.epochStart = 0
	if c.Cwnd < s.wLastMax {
		// Fast convergence: release bandwidth to newcomers faster.
		s.wLastMax = c.Cwnd
		s.wMax = c.Cwnd * (1 + cubicBeta) / 2
	} else {
		s.wLastMax = c.Cwnd
		s.wMax = c.Cwnd
	}
	return max(c.Cwnd*cubicBeta, 2)
}

// OnRTO implements Algorithm: reset the epoch.
func (cb *Cubic) OnRTO(c *Ctx) {
	s := cb.state(c)
	s.epochStart = 0
	s.wMax = c.Cwnd
}
