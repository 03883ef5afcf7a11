package faults

import "acdc/internal/metrics"

// Total sums every injected fault so far.
func (in *Injector) Total() int64 {
	var t int64
	for _, c := range []*metrics.Counter{
		in.drops, in.reorders, in.dups, in.jitters,
		in.corrupts, in.strips, in.fbDrops, in.fbStrips,
	} {
		t += c.Value()
	}
	return t
}
