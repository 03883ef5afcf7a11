// Package trace provides flow-size samplers for the paper's trace-driven
// workloads (§5.2): the web-search distribution from the DCTCP paper
// (Alizadeh et al. [3]) and the heavier-tailed data-mining distribution from
// VL2/CONGA ([2, 25]). The production traces themselves are proprietary;
// both papers publish the flow-size CDFs, which we reproduce as empirical
// distributions with log-linear interpolation — the standard substitution in
// the datacenter-transport literature (pFabric, pHost, Homa all evaluate on
// these same synthesized CDFs).
package trace

import (
	"math"
	"math/rand"
	"sort"
)

// Point is one (size, cumulative probability) knot of an empirical CDF.
type Point struct {
	Bytes float64
	P     float64
}

// Dist is an empirical flow-size distribution.
type Dist struct {
	Name   string
	points []Point
}

// New builds a distribution from CDF knots. Knots must be sorted by P with
// the final P equal to 1; the function panics otherwise (configuration bug).
func New(name string, points []Point) *Dist {
	if len(points) < 2 {
		panic("trace: need at least two CDF points")
	}
	if !sort.SliceIsSorted(points, func(i, j int) bool { return points[i].P < points[j].P }) {
		panic("trace: CDF points must be sorted by probability")
	}
	if points[len(points)-1].P != 1 {
		panic("trace: CDF must end at P=1")
	}
	return &Dist{Name: name, points: points}
}

// Sample draws one flow size in bytes.
func (d *Dist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	pts := d.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].P >= u })
	if i == 0 {
		return int64(pts[0].Bytes)
	}
	if i >= len(pts) {
		i = len(pts) - 1
	}
	lo, hi := pts[i-1], pts[i]
	if hi.P == lo.P {
		return int64(hi.Bytes)
	}
	frac := (u - lo.P) / (hi.P - lo.P)
	// Log-linear interpolation respects the multi-decade span of the sizes.
	logSize := math.Log(lo.Bytes) + frac*(math.Log(hi.Bytes)-math.Log(lo.Bytes))
	return int64(math.Exp(logSize))
}

// WebSearch returns the DCTCP-paper web-search flow-size distribution:
// mostly tens-of-KB query/response traffic with a moderate tail to ~30MB.
func WebSearch() *Dist {
	return New("web-search", []Point{
		{6_000, 0.10},
		{10_000, 0.15},
		{13_000, 0.20},
		{19_000, 0.30},
		{33_000, 0.40},
		{53_000, 0.53},
		{133_000, 0.60},
		{667_000, 0.70},
		{1_467_000, 0.80},
		{2_107_000, 0.90},
		{6_667_000, 0.97},
		{30_000_000, 1.00},
	})
}

// DataMining returns the VL2/CONGA data-mining distribution: the majority of
// flows are tiny (≤1KB) but most bytes live in a very heavy tail to 1GB.
func DataMining() *Dist {
	return New("data-mining", []Point{
		{100, 0.50},
		{300, 0.55},
		{1_000, 0.60},
		{2_000, 0.70},
		{10_000, 0.80},
		{100_000, 0.85},
		{1_000_000, 0.90},
		{10_000_000, 0.96},
		{100_000_000, 0.98},
		{1_000_000_000, 1.00},
	})
}
