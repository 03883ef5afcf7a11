package metrics

import (
	"fmt"
	"sort"
	"strings"
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
// len(Bounds)+1 entries; the last is the overflow bucket.
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
// inside the containing bucket. The overflow bucket reports the last bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1] // overflow: clamp
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
// add bucket-wise when bounds match and otherwise keep the first seen.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, s := range snaps {
		for n, v := range s.Counters {
			out.Counters[n] += v
		}
		for n, v := range s.Gauges {
			out.Gauges[n] += v
		}
		for n, h := range s.Histograms {
			have, ok := out.Histograms[n]
			if !ok {
				out.Histograms[n] = copyHist(h)
				continue
			}
			if len(have.Bounds) != len(h.Bounds) {
				continue
			}
			have.Count += h.Count
			have.Sum += h.Sum
			for i := range have.Counts {
				have.Counts[i] += h.Counts[i]
			}
			out.Histograms[n] = have
		}
	}
	return out
}

func copyHist(h HistogramSnapshot) HistogramSnapshot {
	out := h
	out.Counts = append([]int64(nil), h.Counts...)
	out.Bounds = append([]float64(nil), h.Bounds...)
	return out
}

// Text renders the snapshot as sorted `name value` lines; histograms are
// summarized as count/mean/p50/p99. The format is stable, one instrument
// per line, for grep-ability and golden tests.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%s %d\n", n, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%s count=%d mean=%.4g p50=%.4g p99=%.4g\n",
			n, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
