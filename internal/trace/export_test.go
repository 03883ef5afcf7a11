package trace

import "math"

// Mean returns the analytic mean of the interpolated distribution, estimated
// by numerical integration over the knots.
func (d *Dist) Mean() float64 {
	var mean float64
	pts := d.points
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		dp := hi.P - lo.P
		if dp <= 0 {
			continue
		}
		// Mean of a log-uniform segment: (b-a)/ln(b/a).
		if hi.Bytes > lo.Bytes {
			mean += dp * (hi.Bytes - lo.Bytes) / math.Log(hi.Bytes/lo.Bytes)
		} else {
			mean += dp * hi.Bytes
		}
	}
	return mean
}
