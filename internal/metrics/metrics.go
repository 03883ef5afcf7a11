// Package metrics is the datapath observability layer: a low-overhead
// registry of counters, gauges, and histograms designed to sit on the vSwitch
// hot path (internal/core's Egress/Ingress). The paper's argument — that the
// operator, not the tenant, should own congestion control — only holds in
// production if the operator can see what the datapath is doing: CE
// fractions, RWND rewrites vs. no-ops, PACK/FACK traffic, policing drops,
// flow-table churn, and the virtual CWND/α distributions used to tune K,
// α-gain, and β.
//
// Design constraints, in order:
//
//   - One owner. A registry and its instruments belong to the goroutine that
//     runs the simulation they observe, as the fabric does (internal/sim):
//     every update and every Snapshot happens there, and another goroutine
//     reaches them only through that owner (internal/daemon marshals its
//     reads onto the sim loop). So no instrument is safe for concurrent use.
//   - Update cost. Every counter, gauge, and histogram bucket is one plain
//     word: Counter.Add is a single add, Histogram.Observe a short scan, one
//     increment and one float add. There are no locks, atomics, maps, or
//     allocations anywhere on the update path, so callers resolve
//     instruments once at setup and hold the handles.
//   - Nil tolerance. Every instrument method is a no-op on a nil receiver
//     and every Registry constructor returns nil from a nil registry, so a
//     datapath can be compiled with metrics disabled by simply not creating
//     the registry — the hot path pays one predictable branch.
package metrics

// Counter is a monotonically increasing counter: one word.
type Counter struct {
	v int64
}

// Add adds d to the counter. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc adds one to the counter. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count. Returns 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// LazyCounter is a counter that registers itself in its registry only on the
// first increment. Degradation-path counters (fail-open passthroughs, table
// evictions, fault injections) use it so a healthy run's snapshots contain no
// trace of failure modes that never happened — text encodings, golden tests,
// and operator dashboards stay byte-identical until the event actually fires.
type LazyCounter struct {
	reg  *Registry
	name string
	c    *Counter
}

// Lazy returns a counter named name that joins the registry on first use.
// A nil registry yields a nil LazyCounter, which is a no-op.
func (r *Registry) Lazy(name string) *LazyCounter {
	if r == nil {
		return nil
	}
	return &LazyCounter{reg: r, name: name}
}

// Add adds d, registering the counter if this is its first update. No-op on
// a nil receiver.
func (l *LazyCounter) Add(d int64) {
	if l == nil {
		return
	}
	if l.c == nil {
		l.c = l.reg.Counter(l.name)
	}
	l.c.v += d
}

// Inc adds one. No-op on a nil receiver.
func (l *LazyCounter) Inc() { l.Add(1) }

// Value returns the count so far; 0 on a nil receiver or before first use
// (reading does not register the counter).
func (l *LazyCounter) Value() int64 {
	if l == nil {
		return 0
	}
	return l.c.Value() // Counter.Value is nil-safe before first use
}

// Gauge is an instantaneous value (e.g. flow-table size). Unlike Counter it
// supports Set and negative Adds.
type Gauge struct {
	v int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add adds d (may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value returns the current value. Returns 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram accumulates observations into fixed buckets. Bounds are the
// inclusive upper edges of the first len(Bounds) buckets; one overflow
// bucket catches everything above the last bound. Observe is a linear scan
// over the (small) bound slice, one increment and one add to the sum. There
// is no separate count: it is the sum of the buckets.
type Histogram struct {
	bounds  []float64
	buckets []int64 // len(bounds)+1
	sum     float64
}

// newHistogram copies bounds (must be ascending).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]int64, len(b)+1)}
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
	h.buckets[i]++
	h.sum += x
}

// snapshot copies the histogram state; Count is the sum of the bucket counts.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Sum:    h.sum,
	}
	for i, c := range h.buckets {
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Registry names and owns instruments. Instrument constructors are
// idempotent: asking for the same name twice returns the same instrument
// (Histogram additionally requires the same bounds the first call set).
// The zero value is not usable; call NewRegistry. All methods tolerate a
// nil receiver by returning nil instruments, which are themselves no-ops.
// Like its instruments, a registry belongs to one goroutine.
type Registry struct {
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
