package cc

// NewReno is the classic AIMD algorithm (RFC 5681/6582): slow start,
// one-MSS-per-RTT congestion avoidance, halve on loss.
type NewReno struct{ Base }

// CongAvoid implements Algorithm.
func (*NewReno) CongAvoid(c *Ctx, acked int) { renoGrow(c, acked) }

// SsthreshOnLoss implements Algorithm: half the window, floor 2 MSS.
func (*NewReno) SsthreshOnLoss(c *Ctx) float64 { return max(c.Cwnd/2, 2) }
