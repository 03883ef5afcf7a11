package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Snapshot is a point-in-time copy of a registry, suitable for encoding,
// differencing, and merging. All maps are owned by the snapshot; mutating
// them does not affect the registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's frozen state. Counts has
// len(Bounds)+1 entries; the last is the overflow bucket. Bounds is the
// histogram's own, shared and read-only.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// inside the containing bucket. The overflow bucket has no upper edge, so it
// reports its lower one: the last bound, or 0 when there are no bounds.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i >= len(h.Bounds) {
				return lo // overflow
			}
			hi := h.Bounds[i]
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	if len(h.Bounds) > 0 {
		return h.Bounds[len(h.Bounds)-1]
	}
	return 0
}

// Counter returns the named counter's value, or 0 when absent — callers
// never need to nil-check the map.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value, or 0 when absent.
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Delta returns a snapshot whose counters are s minus prev — the activity
// in one interval. Gauges and histograms are instantaneous, so the later
// (s's) values are kept as-is.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
	for n, v := range s.Counters {
		out.Counters[n] = v - prev.Counters[n]
	}
	return out
}

// Merge sums snapshots from several registries (e.g. one per host's
// vSwitch) into one operator-wide view. Counters and gauges add; histograms
// add bucket-wise when their bounds are equal and otherwise keep the first
// seen.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{map[string]int64{}, map[string]int64{}, map[string]HistogramSnapshot{}}
	for _, s := range snaps {
		for n, v := range s.Counters {
			out.Counters[n] += v
		}
		for n, v := range s.Gauges {
			out.Gauges[n] += v
		}
		for n, h := range s.Histograms {
			switch have, ok := out.Histograms[n]; {
			case !ok:
				h.Counts = slices.Clone(h.Counts) // the bounds are read-only
				out.Histograms[n] = h
			case slices.Equal(have.Bounds, h.Bounds):
				have.Count += h.Count
				have.Sum += h.Sum
				for i := range have.Counts {
					have.Counts[i] += h.Counts[i]
				}
				out.Histograms[n] = have
			}
		}
	}
	return out
}

// Text renders the snapshot as sorted `name value` lines; histograms are
// summarized as count/mean/p50/p99. The format is stable, one instrument
// per line, for grep-ability and golden tests.
func (s Snapshot) Text() string {
	var b []byte
	for _, m := range []map[string]int64{s.Counters, s.Gauges} {
		for _, n := range sortedKeys(m) {
			b = append(strconv.AppendInt(append(append(b, n...), ' '), m[n], 10), '\n')
		}
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		b = fmt.Appendf(b, "%s count=%d mean=%.4g p50=%.4g p99=%.4g\n",
			n, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
