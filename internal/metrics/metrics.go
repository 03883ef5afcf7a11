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
//   - Names once per process, values once per owner. An owner of many
//     series holds them by value in one struct whose `metric` tags a Schema
//     reads once; Register lends the struct to a registry, which reads it in
//     place. Owners of a few use the by-name constructors. Histograms share
//     their caller's bounds.
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

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"unsafe"
)

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

// LazyCounter is a counter that appears in snapshots only once added to,
// even by Add(0). Degradation-path counters (fail-open passthroughs, table
// evictions, fault injections) use it so a healthy run's snapshots, text
// encodings and golden tests carry no trace of failure modes that never
// happened. It is one word: the low bit records the first Add, the rest
// holds the count.
type LazyCounter struct {
	w int64
}

// Add adds d and marks the counter as used. No-op on a nil receiver.
func (l *LazyCounter) Add(d int64) {
	if l == nil {
		return
	}
	l.w = (l.w + d<<1) | 1
}

// Inc adds one. No-op on a nil receiver.
func (l *LazyCounter) Inc() { l.Add(1) }

// Value returns the count so far; 0 on a nil receiver or before first use.
func (l *LazyCounter) Value() int64 {
	if l == nil {
		return 0
	}
	return l.w >> 1
}

// Gauge is an instantaneous value (e.g. flow-table size). Unlike Counter it
// supports Set and negative Adds.
type Gauge struct {
	v int64
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
	bounds  []float64 // the caller's, shared and read-only
	buckets []int64   // len(bounds)+1
	sum     float64
}

// init shares bounds. Bounds that are not finite and strictly ascending
// would file values in the wrong bucket, so it panics, naming the series.
func (h *Histogram) init(name string, bounds []float64) {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q: bounds %v are not finite and strictly ascending", name, bounds))
		}
	}
	h.bounds, h.buckets = bounds, make([]int64, len(bounds)+1)
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
	s := HistogramSnapshot{Bounds: h.bounds, Counts: slices.Clone(h.buckets), Sum: h.sum}
	for _, c := range h.buckets {
		s.Count += c
	}
	return s
}

// Schema names the series of struct type T, once per process: each field
// tagged `metric:"name"`, a Counter, LazyCounter or Gauge.
type Schema[T any] struct{ schema }

type schema struct {
	fields   []schemaField
	counters int // how many fields are Counters: the least a snapshot holds
}

// schemaField is one series of a struct: its name, its offset and its kind,
// an index in wordTypes.
type schemaField struct {
	name string
	off  uintptr
	kind int
}

// wordTypes are the one-word instruments a Schema reads, in kind order.
var wordTypes = []reflect.Type{reflect.TypeFor[Counter](), reflect.TypeFor[LazyCounter](), reflect.TypeFor[Gauge]()}

// NewSchema reads T's tags. It panics on a tagged field of another type.
func NewSchema[T any]() *Schema[T] {
	s, t := &Schema[T]{}, reflect.TypeFor[T]()
	for i := range t.NumField() {
		f := t.Field(i)
		name, ok := f.Tag.Lookup("metric")
		kind := slices.Index(wordTypes, f.Type)
		switch {
		case !ok:
			continue
		case kind < 0:
			panic(fmt.Sprintf("metrics: %s.%s (%q) is a %s, not a Counter, LazyCounter or Gauge", t, f.Name, name, f.Type))
		case kind == 0:
			s.counters++
		}
		s.fields = append(s.fields, schemaField{name, f.Offset, kind})
	}
	return s
}

// at returns the instrument sf names in the struct at base, a T of the
// Schema[T] sf belongs to: Register's signature sees to that.
func (sf schemaField) at(base unsafe.Pointer) any {
	p := unsafe.Add(base, sf.off)
	switch sf.kind {
	case 1:
		return (*LazyCounter)(p)
	case 2:
		return (*Gauge)(p)
	}
	return (*Counter)(p)
}

// Registry names instruments its callers own. Its constructors return the
// one instrument of a name and kind (Histogram keeps the first call's
// bounds); they do not look into registered structs. The zero value is an
// empty registry. Methods on a nil registry return nil instruments, which
// are no-ops. Like its instruments, a registry belongs to one goroutine.
type Registry struct {
	entries  []entry
	counters int // the Counters registered: the least a snapshot holds
}

// entry is the instrument p named name or, when s is set, the struct of s's
// series at p, an unsafe.Pointer.
type entry struct {
	name string
	s    *schema
	p    any
}

// NewRegistry creates an empty registry, with room for a vSwitch's struct
// and its first law's two histograms.
func NewRegistry() *Registry { return &Registry{entries: make([]entry, 0, 4)} }

// Register adds block's series under s's names. The registry reads them in
// place, so block must live as long as the registry does.
func Register[T any](r *Registry, s *Schema[T], block *T) {
	r.entries = append(r.entries, entry{s: &s.schema, p: unsafe.Pointer(block)})
	r.counters += s.counters
}

// named returns the *T the constructors registered under name, registering
// a zero one if there is none.
func named[T any](r *Registry, name string) *T {
	if r == nil {
		return nil
	}
	for _, e := range r.entries {
		if p, ok := e.p.(*T); ok && e.name == name {
			return p
		}
	}
	p := new(T)
	if _, ok := any(p).(*Counter); ok {
		r.counters++
	}
	r.entries = append(r.entries, entry{name: name, p: p})
	return p
}

// Counter returns the counter named name, creating it if needed.
func (r *Registry) Counter(name string) *Counter { return named[Counter](r, name) }

// Lazy returns the lazy counter named name, creating it if needed.
func (r *Registry) Lazy(name string) *LazyCounter { return named[LazyCounter](r, name) }

// Histogram returns the histogram named name, creating it with bounds if
// needed. The histogram shares bounds, so the caller must not change them;
// bounds on subsequent calls are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := named[Histogram](r, name)
	if h != nil && h.buckets == nil {
		h.init(name, bounds)
	}
	return h
}

// Snapshot returns a point-in-time copy of every instrument. Returns the
// zero Snapshot on a nil receiver.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{make(map[string]int64, r.counters), map[string]int64{}, map[string]HistogramSnapshot{}}
	add := func(name string, inst any) {
		switch x := inst.(type) {
		case *Counter:
			s.Counters[name] = x.Value()
		case *LazyCounter:
			if x.w&1 != 0 {
				s.Counters[name] = x.Value()
			}
		case *Gauge:
			s.Gauges[name] = x.Value()
		case *Histogram:
			s.Histograms[name] = x.snapshot()
		}
	}
	for _, e := range r.entries {
		if e.s == nil {
			add(e.name, e.p)
			continue
		}
		for _, f := range e.s.fields {
			add(f.name, f.at(e.p.(unsafe.Pointer)))
		}
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
