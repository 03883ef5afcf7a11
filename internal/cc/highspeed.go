package cc

import "math"

// HighSpeed implements HighSpeed TCP (RFC 3649): above a window of 38
// packets, the additive-increase a(w) grows and the multiplicative-decrease
// b(w) shrinks with the window, following the RFC's response function
// p(w) = 0.078/w^1.2 anchored at (38, 0.5) and (83000, 0.1).
type HighSpeed struct{ Base }

const (
	hsLowWindow  = 38.0
	hsHighWindow = 83000.0
	hsHighDecr   = 0.1
	hsLowDecr    = 0.5
)

// hsB returns the decrease factor b(w) per RFC 3649 §5.
func hsB(w float64) float64 {
	if w <= hsLowWindow {
		return hsLowDecr
	}
	if w >= hsHighWindow {
		return hsHighDecr
	}
	return (hsHighDecr-hsLowDecr)*(math.Log(w)-math.Log(hsLowWindow))/
		(math.Log(hsHighWindow)-math.Log(hsLowWindow)) + hsLowDecr
}

// hsA returns the additive increase a(w) per RFC 3649 §5:
// a(w) = w² · p(w) · 2·b(w) / (2 − b(w)), with p(w) = 0.078 / w^1.2.
func hsA(w float64) float64 {
	if w <= hsLowWindow {
		return 1
	}
	b := hsB(w)
	p := 0.078 / math.Pow(w, 1.2)
	a := w * w * p * 2 * b / (2 - b)
	if a < 1 {
		return 1
	}
	return a
}

// CongAvoid implements Algorithm.
func (*HighSpeed) CongAvoid(c *Ctx, acked int) {
	if c.InSlowStart() {
		renoGrow(c, acked)
		return
	}
	ackedPkts := float64(acked) / float64(c.MSS)
	c.Cwnd += hsA(c.Cwnd) * ackedPkts / c.Cwnd
}

// SsthreshOnLoss implements Algorithm: cwnd·(1−b(w)).
func (*HighSpeed) SsthreshOnLoss(c *Ctx) float64 {
	return max(c.Cwnd*(1-hsB(c.Cwnd)), 2)
}
