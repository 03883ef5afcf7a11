package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Median() != 0 {
		t.Fatal("empty sample should return zeros")
	}
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	if s.N() != 5 || s.Min() != 1 || s.Max() != 5 || !almost(s.Mean(), 3) {
		t.Fatalf("basics: n=%d min=%v max=%v mean=%v", s.N(), s.Min(), s.Max(), s.Mean())
	}
	if !almost(s.Median(), 3) {
		t.Fatalf("median = %v", s.Median())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	for i := 1; i <= 4; i++ {
		s.Add(float64(i)) // 1,2,3,4
	}
	if !almost(s.Percentile(0), 1) || !almost(s.Percentile(100), 4) {
		t.Fatal("extremes wrong")
	}
	// p50 of 1..4 with linear interpolation: rank 1.5 → 2.5
	if !almost(s.Percentile(50), 2.5) {
		t.Fatalf("p50 = %v, want 2.5", s.Percentile(50))
	}
	if !almost(s.Percentile(25), 1.75) {
		t.Fatalf("p25 = %v, want 1.75", s.Percentile(25))
	}
}

func TestPercentileAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Median()
	s.Add(1) // must re-sort
	if s.Min() != 1 {
		t.Fatal("sample did not resort after Add")
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("CDF points = %d", len(cdf))
	}
	if !almost(cdf[9][1], 1.0) {
		t.Fatalf("last CDF point F=%v", cdf[9][1])
	}
	if !almost(cdf[0][0], 10) || !almost(cdf[0][1], 0.1) {
		t.Fatalf("first CDF point = %v", cdf[0])
	}
	if s.CDF(0) != nil {
		t.Fatal("CDF(0) should be nil")
	}
}

func TestJainFairness(t *testing.T) {
	if !almost(JainFairness([]float64{1, 1, 1, 1}), 1) {
		t.Fatal("equal allocation should be 1")
	}
	got := JainFairness([]float64{1, 0, 0, 0})
	if !almost(got, 0.25) {
		t.Fatalf("single hog of 4 = %v, want 0.25", got)
	}
	if JainFairness(nil) != 0 || JainFairness([]float64{0, 0}) != 0 {
		t.Fatal("degenerate cases should be 0")
	}
}

// Property: Jain's index is always in (1/n, 1] for nonzero allocations and
// scale-invariant.
func TestJainProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, float64(r)+1) // strictly positive
		}
		if len(xs) == 0 {
			return true
		}
		j := JainFairness(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * 7.5
		}
		return almost(j, JainFairness(scaled))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-9 || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "tput")
	tb.Row("cubic", 1.98)
	tb.Row("dctcp", 2.0)
	s := tb.String()
	if !strings.Contains(s, "cubic") || !strings.Contains(s, "1.980") {
		t.Fatalf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

// sliceSample is Sample as one growing slice, the layout before blocks: the
// oracle the block storage must match bit for bit.
type sliceSample struct {
	xs     []float64
	sorted bool
}

func (s *sliceSample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *sliceSample) N() int { return len(s.xs) }

func (s *sliceSample) Min() float64 {
	s.sort()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[0]
}

func (s *sliceSample) Max() float64 {
	s.sort()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[len(s.xs)-1]
}

func (s *sliceSample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *sliceSample) Percentile(p float64) float64 {
	s.sort()
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if n == 1 || p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.xs[n-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

func (s *sliceSample) CDF(points int) [][2]float64 {
	s.sort()
	n := len(s.xs)
	if n == 0 || points <= 0 {
		return nil
	}
	if points > n {
		points = n
	}
	out := make([][2]float64, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * n / points
		if idx > n {
			idx = n
		}
		out = append(out, [2]float64{s.xs[idx-1], float64(idx) / float64(n)})
	}
	return out
}

func (s *sliceSample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// queried is what Sample and the oracle both answer.
type queried interface {
	N() int
	Min() float64
	Max() float64
	Mean() float64
	Percentile(p float64) float64
	CDF(points int) [][2]float64
}

// answers asks s every query, the storage-order one (Mean) both before and
// after the sorting ones, and returns the bits of every answer.
func answers(s queried) []uint64 {
	out := []uint64{uint64(s.N()), math.Float64bits(s.Mean())}
	add := func(x float64) { out = append(out, math.Float64bits(x)) }
	add(s.Min())
	add(s.Max())
	for _, p := range []float64{-1, 0, 0.1, 1, 25, 50, 90, 99, 99.9, 100} {
		add(s.Percentile(p))
	}
	for _, k := range []int{0, 1, 7, s.N(), s.N() + 1} {
		for _, pt := range s.CDF(k) {
			add(pt[0])
			add(pt[1])
		}
	}
	add(s.Mean())
	return out
}

// draw returns an observation with many duplicates, both zeros and, when
// special is set, NaN and the infinities.
func draw(rng *rand.Rand, special bool) float64 {
	switch r := rng.Intn(20); {
	case r == 0:
		return math.Copysign(0, -1)
	case r == 1:
		return 0
	case r == 2 && special:
		return math.NaN()
	case r == 3 && special:
		return math.Inf(1 - 2*rng.Intn(2))
	case r < 10:
		return rng.NormFloat64() * 10
	default:
		return float64(rng.Intn(64))
	}
}

// drawWhole returns a whole number of nanoseconds with many duplicates and
// the narrow limit 2³²−1 among them; with wide set, up to about 2³³.
func drawWhole(rng *rand.Rand, wide bool) float64 {
	switch r := rng.Intn(20); {
	case r == 0:
		return 1<<32 - 1
	case r < 10:
		return float64(rng.Intn(64))
	case wide:
		return float64(rng.Int63n(1 << 33))
	default:
		return float64(rng.Int63n(1 << 32))
	}
}

func sameAnswers(t *testing.T, what string, got, want queried) {
	t.Helper()
	g, w := answers(got), answers(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d answers, oracle %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: answer %d is %x (%v), oracle %x (%v)", what, i,
				g[i], math.Float64frombits(g[i]), w[i], math.Float64frombits(w[i]))
		}
	}
}

// TestSampleMatchesSliceOracle: Adds interleaved with queries, some of them
// through a value copy, answer what one sorted slice answers, bit for bit up
// to NaN payloads. Besides fractions, ±0 and the special values, whole
// numbers go in: narrow until the widening value three quarters in (2³², −0
// or 0.5), up to about 2³³ after it, with copies queried just before and just
// after it. Once a Sample that counted widens, the order of −0 and 0 is
// outside its contract, so from then on a zero answer may differ in sign.
func TestSampleMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wideners := map[string]float64{"2^32": 1 << 32, "-0": math.Copysign(0, -1), "0.5": 0.5}
	for _, n := range []int{0, 1, 2, 511, 512, 513, 1024, 1025, 5000} {
		for _, mode := range []string{"mixed", "special", "2^32", "-0", "0.5"} {
			var s Sample
			var o sliceSample
			widener, whole := wideners[mode]
			w := 3 * n / 4
			counted := false
			for i := 0; i < n; i++ {
				var x float64
				switch {
				case !whole:
					x = draw(rng, mode == "special")
				case i < w:
					x = drawWhole(rng, false)
				case i == w:
					x = widener
				default:
					x = drawWhole(rng, true)
				}
				s.Add(x)
				o.Add(x)
				counted = counted || len(s.runs) > 0
				if whole && s.wide != (i >= w) {
					t.Fatalf("n=%d %s after %d: wide %v", n, mode, i+1, s.wide)
				}
				edge := whole && (i == w-1 || i == w)
				if !edge && rng.Intn(n/8+1) != 0 {
					continue
				}
				what := fmt.Sprintf("n=%d %s after %d", n, mode, i+1)
				if edge || rng.Intn(2) == 0 {
					// A copy shares storage: sorting through it reorders
					// what the original's Mean sums.
					c, co := s, o
					sameUpTo(t, what+" (copy)", &c, &co, counted && s.wide)
				} else {
					sameUpTo(t, what, &s, &o, counted && s.wide)
				}
			}
			sameUpTo(t, fmt.Sprintf("n=%d %s", n, mode), &s, &o, counted && s.wide)
		}
	}
}

// TestAddAllMatchesCDFCopy: AddAll leaves a Sample as copying each source
// through CDF(N) did, storage order included.
func TestAddAllMatchesCDFCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Sample
	var o sliceSample
	for _, n := range []int{0, 1, 512, 513} {
		var src Sample
		var osrc sliceSample
		for i := 0; i < n; i++ {
			x := draw(rng, false)
			src.Add(x)
			osrc.Add(x)
		}
		s.AddAll(&src)
		for _, pt := range osrc.CDF(osrc.N()) {
			o.Add(pt[0])
		}
		var one Sample
		one.AddAll(&src)
		var oone sliceSample
		for _, pt := range osrc.CDF(osrc.N()) {
			oone.Add(pt[0])
		}
		sameAnswers(t, fmt.Sprintf("one source of %d", n), &one, &oone)
	}
	sameAnswers(t, "sources of 0, 1, 512 and 513", &s, &o)
}

// allocated returns the bytes f allocates, the least over five tries.
func allocated(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// TestSampleAddNeverCopies: 100 000 Adds allocate what they store, 4 B per
// whole number and 8 B per fraction, one block more for the first block's
// growth by append, at most one block of room in the last, and the block
// list. One growing float64 slice allocates about five times 8 B per
// observation.
func TestSampleAddNeverCopies(t *testing.T) {
	const n = 100_000
	for _, tc := range []struct {
		what  string
		x     func(i int) float64
		width uint64
	}{
		{"integral", func(i int) float64 { return float64(i) }, 4},
		{"fractional", func(i int) float64 { return float64(i) + 0.5 }, 8},
	} {
		var s Sample
		got := allocated(func() {
			s = Sample{}
			for i := 0; i < n; i++ {
				s.Add(tc.x(i))
			}
		})
		block := tc.width * blockLen
		list := uint64(4 * 24 * (n/blockLen + 1)) // slice headers, grown by doubling
		if limit := n*tc.width + 2*block + list; got > limit {
			t.Errorf("%d %s Adds allocated %d B, want ≤ %d B", n, tc.what, got, limit)
		}
	}
}

// TestSampleWidensOnce: the first value that is not a whole number in
// [0, 2³²) converts a Sample of several blocks with no more than one float64
// copy of the blocks it holds and their list.
func TestSampleWidensOnce(t *testing.T) {
	const n = 3*blockLen + 100
	best, limit := uint64(math.MaxUint64), uint64(0)
	var ms runtime.MemStats
	for try := 0; try < 5; try++ {
		var s Sample
		for i := 0; i < n; i++ {
			s.Add(float64(i))
		}
		held := cap(s.ints.head) + len(s.ints.rest)*blockLen
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s.Add(0.5)
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
		if !s.wide || s.N() != n+1 || s.Max() != n-1 || s.Min() != 0 {
			t.Fatalf("after widening: wide %v, N %d, min %v, max %v", s.wide, s.N(), s.Min(), s.Max())
		}
		limit = uint64(8*held + 2*24*len(s.floats.rest))
	}
	if best > limit {
		t.Fatalf("widening %d observations allocated %d B, want ≤ %d B", n, best, limit)
	}
}

// TestSmallSampleAllocatesNoMore: a Sample of up to one block allocates no
// more than one growing slice of the same observations.
func TestSmallSampleAllocatesNoMore(t *testing.T) {
	for _, n := range []int{1, 3, 200, 512} {
		var s Sample
		var o sliceSample
		got := allocated(func() {
			s = Sample{}
			for i := 0; i < n; i++ {
				s.Add(float64(i))
			}
		})
		want := allocated(func() {
			o = sliceSample{}
			for i := 0; i < n; i++ {
				o.Add(float64(i))
			}
		})
		if got > want {
			t.Errorf("n=%d: Sample allocated %d B, one slice %d B", n, got, want)
		}
	}
}

// sameUpTo is sameAnswers up to what a Sample leaves open: the payload of a
// NaN (Mean's additions may propagate another one than the slice's loop)
// and, when zeroSign is set for a Sample that counted before it widened,
// the sign of a zero.
func sameUpTo(t *testing.T, what string, got, want queried, zeroSign bool) {
	t.Helper()
	g, w := answers(got), answers(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d answers, oracle %d", what, len(g), len(w))
	}
	for i := range g {
		if a, b := math.Float64frombits(g[i]), math.Float64frombits(w[i]); !same(a, b, zeroSign) {
			t.Fatalf("%s: answer %d is %x (%v), oracle %x (%v)", what, i, g[i], a, w[i], b)
		}
	}
}

func same(a, b float64, zeroSign bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || zeroSign && a == 0 && b == 0 ||
		math.IsNaN(a) && math.IsNaN(b)
}

// FuzzSampleMatchesSlice: a Sample answers every query as one float64 slice
// of the same observations does, whether it counts them, stops counting part
// way or never starts. The inputs pick how many observations go in, how many
// distinct values they take (a fixed set of card values, with or without a
// share of fresh ones that grows to all), where and with what the Sample
// widens, and a seed for the rest: the draws, queries between Adds (some
// through a value copy) and an AddAll of the result into an empty, a
// counting and a wide Sample.
func FuzzSampleMatchesSlice(f *testing.F) {
	// mode&1 draws ever more fresh values; mode/2%5 picks the widener (none,
	// 0.5, −0, NaN or 2³²); mode/10%2 draws only ±0 and whole numbers once
	// wide, so that the lowest answers show a zero's sign.
	f.Add(int64(1), uint16(6000), uint16(200), uint16(0), uint8(0))        // counts throughout
	f.Add(int64(2), uint16(5000), uint16(4000), uint16(0), uint8(0))       // never counts
	f.Add(int64(3), uint16(6000), uint16(8), uint16(0), uint8(1))          // stops counting part way
	f.Add(int64(4), uint16(3000), uint16(100), uint16(2000), uint8(2))     // counts, widens on 0.5
	f.Add(int64(5), uint16(3000), uint16(100), uint16(1500), uint8(4))     // counts, widens on −0
	f.Add(int64(6), uint16(2600), uint16(64), uint16(2100), uint8(6))      // counts, widens on NaN
	f.Add(int64(7), uint16(1100), uint16(3), uint16(1050), uint8(8))       // counts, widens on 2³²
	f.Add(int64(8), uint16(4000), uint16(30000), uint16(3000), uint8(14))  // never counts, widens on −0
	f.Add(int64(13), uint16(4000), uint16(30000), uint16(1030), uint8(14)) // never counts, widens just after judging
	f.Add(int64(12), uint16(3000), uint16(100), uint16(1500), uint8(14))   // counts, widens on −0
	f.Add(int64(9), uint16(1023), uint16(1), uint16(0), uint8(0))          // not yet counting
	f.Add(int64(10), uint16(1025), uint16(1), uint16(1024), uint8(2))      // one value, widens last
	f.Add(int64(11), uint16(6000), uint16(8), uint16(5500), uint8(5))      // stops counting, widens
	f.Fuzz(func(t *testing.T, seed int64, n, card, widenAt uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		total := int(n % 8192)
		pool := 1 + int(card)
		growing := mode&1 == 1
		widener := []float64{math.NaN(), 0.5, math.Copysign(0, -1), math.NaN(), 1 << 32}[mode/2%5]
		widen := mode/2%5 != 0 && int(widenAt) < total
		zeros := mode/10%2 == 1
		vals := make([]float64, pool)
		for i := range vals {
			vals[i] = float64(rng.Int63n(1 << 32))
		}
		vals[0], vals[len(vals)-1] = 0, 1<<32-1
		var s Sample
		var o sliceSample
		counted := false
		for i := 0; i < total; i++ {
			var x float64
			switch {
			case widen && i == int(widenAt):
				counted = counted || len(s.runs) > 0
				x = widener
			case s.wide && zeros && rng.Intn(4) == 0:
				x = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case s.wide && rng.Intn(4) == 0:
				x = draw(rng, true)
			case growing && rng.Intn(total) < 2*i:
				x = float64(rng.Int63n(1 << 32))
			default:
				x = vals[rng.Intn(pool)]
			}
			s.Add(x)
			o.Add(x)
			counted = counted || len(s.runs) > 0
			if rng.Intn(total/6+1) != 0 {
				continue
			}
			what := fmt.Sprintf("after %d", i+1)
			if rng.Intn(2) == 0 {
				c, co := s, o
				sameUpTo(t, what+" (copy)", &c, &co, counted && s.wide)
			} else {
				sameUpTo(t, what, &s, &o, counted && s.wide)
			}
		}
		loose := counted && s.wide
		sameUpTo(t, "at the end", &s, &o, loose)
		// Sorted, it stores the sorted slice's order: the runs and the
		// pending block merged.
		i := 0
		s.each(func(x float64) {
			if !same(x, o.xs[i], loose) {
				t.Fatalf("sorted, observation %d is %v, oracle %v", i, x, o.xs[i])
			}
			i++
		})
		if s.N() != total || s.wide != (widen && total > 0) {
			t.Fatalf("N %d of %d, wide %v", s.N(), total, s.wide)
		}
		// AddAll into an empty, a counting and a wide Sample, whose Mean
		// shows the order AddAll adds in. A twin fed the oracle's ascending
		// order through Add shows whether the target counted before it
		// widened.
		for _, prefill := range []struct {
			n    int
			frac float64
		}{{0, 0}, {1100, 0}, {300, 0.1}} {
			var dst, twin Sample
			var odst sliceSample
			for i := 0; i < prefill.n; i++ {
				x := float64(i%40) + prefill.frac
				dst.Add(x)
				twin.Add(x)
				odst.Add(x)
			}
			dst.AddAll(&s)
			twinCounted := false
			for _, pt := range o.CDF(o.N()) {
				twinCounted = twinCounted || len(twin.runs) > 0
				twin.Add(pt[0])
				odst.Add(pt[0])
			}
			what := fmt.Sprintf("AddAll after %v", prefill)
			sameUpTo(t, what, &dst, &odst, loose || (twinCounted && dst.wide))
		}
	})
}

// held returns the bytes of s's backing arrays: what it keeps live besides
// the Sample itself.
func held(s *Sample) int {
	return 8*cap(s.runs) + blocksHeld(&s.ints, 4) + blocksHeld(&s.floats, 8)
}

func blocksHeld[T uint32 | float64](b *blocks[T], width int) int {
	n := width*cap(b.head) + 24*cap(b.rest)
	for _, blk := range b.rest {
		n += width * cap(blk)
	}
	return n
}

// TestSampleFootprint pins what a Sample keeps live on both sides of the
// counting rule. incast47's prober RTTs, 31 022 observations over 548
// values (path delay plus whole serialisation times), sweep up and down as
// the queue fills and drains: the first 1 024 take 536 values at seed 1.
// Here a sweep takes all 548 in its first 548. They are held in runs and one
// pending block, at most 8 KB where blocks took 124 KB. mice-churn's request
// times, 44 802 observations over 43 284 values, stay in blocks: no more
// than blocks alone hold, plus 4 KB. Both answer as the oracle does.
func TestSampleFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fresh := rng.Perm(44_802) // below 43 284 a value of its own, above it a repeat
	for _, tc := range []struct {
		n, distinct int
		next        func(i int) int // index of observation i's value
		limit       func(blocks int) int
	}{
		{31_022, 548, func(i int) int { // a queue sweeping 0 … 547 … 0
			return 547 - abs(i%1094-547)
		}, func(int) int { return 8 << 10 }},
		{44_802, 43_284, func(i int) int {
			if fresh[i] < 43_284 {
				return fresh[i]
			}
			return rng.Intn(43_284)
		}, func(blocks int) int { return blocks + 4<<10 }},
	} {
		var s Sample
		var o sliceSample
		var b blocks[uint32]
		seen := map[int]bool{}
		for i := 0; i < tc.n; i++ {
			x := float64(20_000 + 1_200*tc.next(i)) // ns: a path delay plus queued 1.2 µs packets
			seen[int(x)] = true
			s.Add(x)
			o.Add(x)
			b.add(uint32(x))
		}
		got, limit := held(&s), tc.limit(blocksHeld(&b, 4))
		t.Logf("%d observations over %d values: %d B held (%d runs), blocks alone %d B",
			tc.n, len(seen), got, len(s.runs), blocksHeld(&b, 4))
		if len(seen) != tc.distinct {
			t.Fatalf("%d observations took %d values, want %d", tc.n, len(seen), tc.distinct)
		}
		if got > limit {
			t.Errorf("%d observations over %d values hold %d B, want ≤ %d B", tc.n, tc.distinct, got, limit)
		}
		sameAnswers(t, fmt.Sprintf("%d over %d", tc.n, tc.distinct), &s, &o)
	}
}

func abs(x int) int { return max(x, -x) }

// TestSampleStopsCountingAt2to21: past 2²¹ observations near 2³² a sum
// rounds, so its order shows in Mean. A Sample stops counting before that
// and keeps later observations in insertion order, as the slice does.
func TestSampleStopsCountingAt2to21(t *testing.T) {
	var s Sample
	var o sliceSample
	for i := 0; i < 3<<20; i++ {
		x := float64(1<<32 - 1 - i%3)
		s.Add(x)
		o.Add(x)
	}
	if len(s.runs) != 0 {
		t.Fatalf("still counting %d observations in %d runs", s.counted, len(s.runs))
	}
	for _, q := range []struct {
		what      string
		got, want float64
	}{
		{"mean", s.Mean(), o.Mean()},
		{"p50", s.Percentile(50), o.Percentile(50)},
		{"p99.9", s.Percentile(99.9), o.Percentile(99.9)},
		{"mean after sorting", s.Mean(), o.Mean()},
	} {
		if math.Float64bits(q.got) != math.Float64bits(q.want) {
			t.Errorf("%s: %v, slice %v", q.what, q.got, q.want)
		}
	}
}
