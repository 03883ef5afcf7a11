// Package metrics is the datapath observability layer: a low-overhead,
// concurrency-safe registry of counters, gauges, and histograms designed to
// sit on the vSwitch hot path (internal/core's Egress/Ingress). The paper's
// argument — that the operator, not the tenant, should own congestion
// control — only holds in production if the operator can see what the
// datapath is doing: CE fractions, RWND rewrites vs. no-ops, PACK/FACK
// traffic, policing drops, flow-table churn, and the virtual CWND/α
// distributions used to tune K, α-gain, and β.
//
// Design constraints, in order:
//
//   - Update cost. Every counter and histogram bucket is one atomic word;
//     the datapath has one writer, so nothing is padded or striped, and
//     Counter.Add is a single atomic add. There are no locks, maps, or
//     allocations anywhere on the update path. Registration
//     (Registry.Counter etc.) takes a mutex, so callers resolve instruments
//     once at setup and hold the handles.
//   - Concurrency. All instruments stay safe for concurrent update and
//     concurrent Snapshot, because every update is still an atomic add. A
//     histogram snapshot derives Count from the bucket counts it loaded, so
//     Count always equals their sum; consistency does not extend across
//     instruments, which would require stopping the world.
//   - Nil tolerance. Every instrument method is a no-op on a nil receiver
//     and every Registry constructor returns nil from a nil registry, so a
//     datapath can be compiled with metrics disabled by simply not creating
//     the registry — the hot path pays one predictable branch.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter: one word.
type Counter struct {
	v atomic.Int64
}

// Add adds d to the counter. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds one to the counter. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count. Returns 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LazyCounter is a counter that registers itself in its registry only on the
// first increment. Degradation-path counters (fail-open passthroughs, table
// evictions, fault injections) use it so a healthy run's snapshots contain no
// trace of failure modes that never happened — text encodings, golden tests,
// and operator dashboards stay byte-identical until the event actually fires.
type LazyCounter struct {
	reg  *Registry
	name string
	c    atomic.Pointer[Counter]
}

// Lazy returns a counter named name that joins the registry on first use.
// A nil registry yields a nil LazyCounter, which is a no-op.
func (r *Registry) Lazy(name string) *LazyCounter {
	if r == nil {
		return nil
	}
	return &LazyCounter{reg: r, name: name}
}

func (l *LazyCounter) resolve() *Counter {
	if c := l.c.Load(); c != nil {
		return c
	}
	// Registry.Counter is idempotent, so concurrent first increments all
	// resolve to the same instrument; the CAS only dedups the pointer store.
	c := l.reg.Counter(l.name)
	l.c.CompareAndSwap(nil, c)
	return c
}

// Add adds d, registering the counter if this is its first update. No-op on
// a nil receiver.
func (l *LazyCounter) Add(d int64) {
	if l == nil {
		return
	}
	l.resolve().Add(d)
}

// Inc adds one. No-op on a nil receiver.
func (l *LazyCounter) Inc() { l.Add(1) }

// Value returns the count so far; 0 on a nil receiver or before first use
// (reading does not register the counter).
func (l *LazyCounter) Value() int64 {
	if l == nil {
		return 0
	}
	return l.c.Load().Value() // Counter.Value is nil-safe before first use
}

// Gauge is an instantaneous value (e.g. flow-table size). Unlike Counter it
// supports Set and negative Adds; it is a single atomic because gauges are
// updated at state-change frequency, not per packet.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value. Returns 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed buckets. Bounds are the
// inclusive upper edges of the first len(Bounds) buckets; one overflow
// bucket catches everything above the last bound. Observe is lock-free: a
// linear scan over the (small) bound slice, one atomic add and a CAS on the
// sum. There is no separate count: it is the sum of the buckets.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1
	sumBits atomic.Uint64  // float64 bits, CAS-updated
}

// newHistogram copies bounds (must be ascending).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records x. No-op on a nil receiver.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := floatBits(bitsFloat(old) + x)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// snapshot copies the histogram state. Count is the sum of the bucket counts
// just loaded, so a snapshot racing Observe never has Count ≠ Σ Counts.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Sum:    bitsFloat(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Registry names and owns instruments. Instrument constructors are
// idempotent: asking for the same name twice returns the same instrument
// (Histogram additionally requires the same bounds the first call set).
// The zero value is not usable; call NewRegistry. All methods tolerate a
// nil receiver by returning nil instruments, which are themselves no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter named name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge named name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram named name, creating it with the given
// ascending bucket bounds if needed. Bounds on subsequent calls are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every instrument. Returns the
// zero Snapshot on a nil receiver.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// Names returns every registered instrument name, sorted (for stable text
// encodings and tests).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExponentialBounds returns n ascending bucket bounds starting at start and
// multiplying by factor — the standard shape for byte-valued distributions
// like CWND.
func ExponentialBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// LinearBounds returns n ascending bucket bounds start, start+step, … — the
// standard shape for bounded quantities like DCTCP's α ∈ [0,1].
func LinearBounds(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + step*float64(i)
	}
	return out
}
