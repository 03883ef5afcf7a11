package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 42 {
		t.Fatalf("Value = %d, want 42", v)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent")
	}
}

func TestGaugeBasics(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(10)
	g.Add(-3)
	if v := g.Value(); v != 7 {
		t.Fatalf("Value = %d, want 7", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 2, 4})
	for _, x := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(x)
	}
	s := h.snapshot()
	// 0.5 and 1 land in bucket ≤1; 1.5 in ≤2; 3 in ≤4; 100 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("count=%d sum=%g", s.Count, s.Sum)
	}
	if m := s.Mean(); m != 106.0/5 {
		t.Fatalf("mean = %g", m)
	}
	if q := s.Quantile(0.99); q != 4 {
		t.Fatalf("p99 = %g, want overflow clamp 4", q)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{10, 20})
	for i := 0; i < 10; i++ {
		h.Observe(5) // all in first bucket (0,10]
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); q != 5 {
		t.Fatalf("p50 = %g, want midpoint 5", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestSnapshotIsACopy: a snapshot holds exactly the updates made before it,
// across every instrument type, and later updates or edits to the snapshot
// do not reach the other. The registry's owner takes snapshots between
// updates, so a snapshot is a plain copy.
func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", []float64{0.5, 1})
	lazy := r.Lazy("lazy_total")
	for i := 0; i < 1000; i++ {
		c.Inc()
		g.Add(1)
		h.Observe(0.25)
	}
	lazy.Add(3)
	s := r.Snapshot()
	c.Inc()
	g.Set(0)
	h.Observe(2)
	lazy.Inc()
	if s.Counter("c") != 1000 || s.Gauge("g") != 1000 || s.Counter("lazy_total") != 3 {
		t.Fatalf("snapshot = %+v, want c=1000 g=1000 lazy_total=3", s)
	}
	if hs := s.Histograms["h"]; hs.Count != 1000 || hs.Sum != 250 || hs.Counts[2] != 0 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	s.Histograms["h"].Counts[0] = -1
	if hs := r.Snapshot().Histograms["h"]; hs.Counts[0] != 1000 || hs.Counts[2] != 1 || hs.Count != 1001 {
		t.Fatalf("registry histogram after editing a snapshot = %+v", hs)
	}
	if c.Value() != 1001 || lazy.Value() != 4 || g.Value() != 0 {
		t.Fatalf("instruments = %d, %d, %d; want 1001, 4, 0", c.Value(), lazy.Value(), g.Value())
	}
}

// TestHistogramCountIsBucketSum: a snapshot's Count is the sum of its
// bucket counts and its Sum the sum of the observations, for a seeded mix
// that hits every bucket, the bounds themselves and the overflow.
func TestHistogramCountIsBucketSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	rng := rand.New(rand.NewSource(1))
	want := make([]int64, 4)
	var sum float64
	for i := 0; i < 5000; i++ {
		x := float64(rng.Intn(12)) / 2 // 0, 0.5, …, 5.5: the bounds included
		h.Observe(x)
		sum += x
		switch {
		case x <= 1:
			want[0]++
		case x <= 2:
			want[1]++
		case x <= 4:
			want[2]++
		default:
			want[3]++
		}
	}
	s := r.Snapshot().Histograms["h"]
	var total int64
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
		total += c
	}
	if s.Count != total || s.Count != 5000 || s.Sum != sum {
		t.Fatalf("Count = %d (Σ buckets %d), Sum = %g (want %g)", s.Count, total, s.Sum, sum)
	}
}

// TestUpdatesZeroAlloc: updating any instrument, a lazy counter after its
// first update included, allocates nothing.
func TestUpdatesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c, g, h, lazy := r.Counter("c"), r.Gauge("g"), r.Histogram("h", ExponentialBounds(4096, 2, 12)), r.Lazy("l")
	lazy.Inc()
	x := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(x)
		lazy.Inc()
		x += 1000
	}); n != 0 {
		t.Fatalf("%v allocs per update round, want 0", n)
	}
}

// TestCounterSizeClass keeps a Counter, a LazyCounter and a Gauge at one
// word each: a vSwitch holds dozens of them, and one goroutine owns them, so
// padding buys nothing.
func TestCounterSizeClass(t *testing.T) {
	for name, n := range map[string]uintptr{"Counter": unsafe.Sizeof(Counter{}),
		"LazyCounter": unsafe.Sizeof(LazyCounter{}), "Gauge": unsafe.Sizeof(Gauge{})} {
		if n != 8 {
			t.Errorf("%s is %d bytes, want 8", name, n)
		}
	}
}

// testBlock is an owner's series held by value, as core.DatapathMetrics
// holds a vSwitch's.
type testBlock struct {
	Pkts  Counter     `metric:"pkts_total"`
	Fails LazyCounter `metric:"fails_total"`
	Flows Gauge       `metric:"flows"`
}

var testSchema = NewSchema[testBlock]()

// TestRegisteredBlock: a registered struct's series are read in place under
// their tag names, and its lazy series appears only once added to, by
// Add(0) too.
func TestRegisteredBlock(t *testing.T) {
	r := NewRegistry()
	b := &testBlock{}
	Register(r, testSchema, b)
	b.Pkts.Add(3)
	b.Flows.Set(2)
	if got, want := r.Snapshot().Text(), "pkts_total 3\nflows 2\n"; got != want {
		t.Fatalf("snapshot text = %q, want %q", got, want)
	}
	b.Fails.Add(0)
	if v, ok := r.Snapshot().Counters["fails_total"]; !ok || v != 0 {
		t.Fatalf("after Add(0), fails_total = %d, %v; want 0, present", v, ok)
	}
	b.Fails.Inc()
	if b.Fails.Value() != 1 || r.Snapshot().Counter("fails_total") != 1 {
		t.Fatalf("fails_total = %d, want 1", b.Fails.Value())
	}
}

// mustPanic runs f and requires it to panic with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("recovered %v, want a panic mentioning %s", r, want)
		}
	}()
	f()
}

// TestSchemaRejectsWhatItCannotRead: a tagged field must be a one-word
// instrument held by value.
func TestSchemaRejectsWhatItCannotRead(t *testing.T) {
	mustPanic(t, `"x"`, func() {
		NewSchema[struct {
			X int `metric:"x"`
		}]()
	})
	mustPanic(t, `"y"`, func() {
		NewSchema[struct {
			Y *Counter `metric:"y"`
		}]()
	})
}

// TestHistogramRejectsBadBounds: bounds that are not finite and strictly
// ascending would file observations in the wrong bucket without an error,
// so registering them panics, naming the series.
func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, b := range [][]float64{ExponentialBounds(1, 0.5, 4), {1, 1}, {1, math.NaN()},
		{math.Inf(-1), 0}, {1, math.Inf(1)}} {
		mustPanic(t, `"bad"`, func() { NewRegistry().Histogram("bad", b) })
	}
}

// TestQuantileWithoutBounds: a histogram with no bounds has only the
// overflow bucket, whose quantiles report its lower edge, 0, rather than
// indexing before the first bound.
func TestQuantileWithoutBounds(t *testing.T) {
	r := NewRegistry()
	r.Histogram("x", nil).Observe(5)
	if got, want := r.Snapshot().Text(), "x count=1 mean=5 p50=0 p99=0\n"; got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
}

// TestMergeKeepsFirstOfUnequalBounds: histograms whose bounds have the same
// length but other values are not added bucket-wise; the first seen stays.
func TestMergeKeepsFirstOfUnequalBounds(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("h", []float64{1, 2}).Observe(1.5)
	b.Histogram("h", []float64{10, 20}).Observe(15)
	m := Merge(a.Snapshot(), b.Snapshot()).Histograms["h"]
	if m.Count != 1 || !slices.Equal(m.Counts, []int64{0, 1, 0}) || !slices.Equal(m.Bounds, []float64{1, 2}) {
		t.Fatalf("merged = %+v, want the first histogram alone", m)
	}
}

// TestNilSafety: a disabled datapath holds nil instruments; every operation
// must be a cheap no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestSnapshotDeltaAndMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Add(10)
	prev := r.Snapshot()
	c.Add(5)
	d := r.Snapshot().Delta(prev)
	if d.Counter("pkts") != 5 {
		t.Fatalf("delta = %d, want 5", d.Counter("pkts"))
	}

	r2 := NewRegistry()
	r2.Counter("pkts").Add(7)
	r2.Gauge("flows").Set(3)
	r2.Histogram("h", []float64{1}).Observe(0.5)
	r3 := NewRegistry()
	r3.Histogram("h", []float64{1}).Observe(2)
	m := Merge(r.Snapshot(), r2.Snapshot(), r3.Snapshot())
	if m.Counter("pkts") != 22 {
		t.Fatalf("merged counter = %d, want 22", m.Counter("pkts"))
	}
	if m.Gauge("flows") != 3 {
		t.Fatalf("merged gauge = %d, want 3", m.Gauge("flows"))
	}
	if h := m.Histograms["h"]; h.Count != 2 || h.Counts[1] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestEncoders(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("flows").Set(9)
	r.Histogram("alpha", LinearBounds(0.1, 0.1, 10)).Observe(0.25)
	s := r.Snapshot()

	text := s.Text()
	if !strings.Contains(text, "a_total 1\n") || !strings.Contains(text, "flows 9\n") {
		t.Fatalf("text encoding missing lines:\n%s", text)
	}
	if strings.Index(text, "a_total") > strings.Index(text, "b_total") {
		t.Fatalf("text encoding not sorted:\n%s", text)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("b_total") != 2 || back.Histograms["alpha"].Count != 1 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestBoundsHelpers(t *testing.T) {
	e := ExponentialBounds(2, 2, 4)
	for i, w := range []float64{2, 4, 8, 16} {
		if e[i] != w {
			t.Fatalf("ExponentialBounds = %v", e)
		}
	}
	l := LinearBounds(0.1, 0.1, 3)
	for i, w := range []float64{0.1, 0.2, 0.3} {
		if diff := l[i] - w; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("LinearBounds = %v", l)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", ExponentialBounds(4096, 2, 12))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100000))
	}
}
