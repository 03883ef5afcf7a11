// Package stats provides the measurement primitives the evaluation harness
// uses: percentile/CDF summaries over a Sample that counts repeated values,
// Jain's fairness index and a text table.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// blockLen is the number of observations in one storage block: 2 KB of
// uint32 or 4 KB of float64, pointer-free and an exact size class at either
// width.
const blockLen = 512

// Sample accumulates float64 observations for percentile and CDF queries.
// The zero value is ready to use.
//
// Every observation is stored at one width: as a uint32 while each value so
// far is a whole number in [0, 2³²) with a clear sign bit (a latency in
// nanoseconds below 4.3 s), as a float64 once one is not. The first value
// that does not fit converts what is stored to float64, once and in storage
// order, and the Sample stays wide.
//
// Narrow observations are counted while they repeat: the first two blocks,
// then each block as it fills, are sorted into runs of (value, count). Past
// one block more than blocks would take (8 B a run, 4 B an observation), or
// 2²¹ observations, they go back to blocks for good.
// Every answer is a float64 slice's, bit for bit up to a NaN's payload: below
// 2²¹ narrow observations sum exactly in any order, and the rest reads sorted
// order. Once a counted Sample widens, a zero answer may differ in sign too,
// as sort.Float64s leaves the order of −0 and 0 open.
//
// The observations live in blocks of blockLen. The first block grows by
// append, so a Sample of up to blockLen observations allocates no more than
// a plain slice would; every later block is made at full size, so Add never
// copies what is already stored, except to widen or stop counting. A value
// copy answers for what it was copied with until the original records more.
type Sample struct {
	ints    blocks[uint32]  // while narrow; while counting, the pending block
	floats  blocks[float64] // once wide
	runs    []run           // while counting
	counted int             // observations in runs
	wide    bool
	sorted  bool
}

type run struct{ v, n uint32 } // a distinct narrow value and its count

// blocks holds observations of one width.
type blocks[T uint32 | float64] struct {
	head []T   // observations 0 … blockLen-1
	rest [][]T // later blocks, each of capacity blockLen; all but the last are full
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.sorted = false
	if !s.wide {
		// float64(u) == x holds only for a whole x in [0, 2³²), whatever
		// an out-of-range conversion yields; −0 is the one such x the
		// comparison cannot tell from 0.
		if u := uint32(x); float64(u) == x && !math.Signbit(x) {
			s.ints.add(u)
			if len(s.ints.head) == blockLen && (len(s.runs) > 0 || s.ints.n() == 2*blockLen) {
				s.fold()
			}
			return
		}
		s.widen()
	}
	s.floats.add(x)
}

// fold counts the pending block, or at first the first two, into the runs.
func (s *Sample) fold() {
	var buf [2 * blockLen]uint32 // a copy: blocks keep insertion order
	blk := buf[:copy(buf[:], s.ints.head)]
	if len(s.runs) == 0 {
		blk = buf[:blockLen+copy(buf[blockLen:], s.ints.rest[0])]
	}
	slices.Sort(blk)
	m, i := len(s.runs), 0 // m: runs after the merge
	for j, x := range blk {
		for i < len(s.runs) && s.runs[i].v < x {
			i++
		}
		if (j == 0 || x != blk[j-1]) && (i == len(s.runs) || s.runs[i].v != x) {
			m++
		}
	}
	n := s.counted + len(blk)
	if m > (n+blockLen)/2 || n > 1<<21-blockLen {
		s.unfold()
		return
	}
	// Merge from the back, in place: runs[m:] are merged, runs[:i+1] unread.
	i = len(s.runs) - 1
	s.runs = slices.Grow(s.runs, m-len(s.runs))[:m]
	for j := len(blk) - 1; j >= 0; {
		x, c := blk[j], uint32(0)
		for ; j >= 0 && blk[j] == x; j-- {
			c++
		}
		for ; i >= 0 && s.runs[i].v > x; i-- {
			m--
			s.runs[m] = s.runs[i]
		}
		if i >= 0 && s.runs[i].v == x {
			c += s.runs[i].n
			i--
		}
		m--
		s.runs[m] = run{x, c}
	}
	s.counted, s.ints = n, blocks[uint32]{head: s.ints.head[:0]}
}

// unfold lays the runs and the pending block out as blocks, for good.
func (s *Sample) unfold() {
	if in := *s; len(in.runs) > 0 {
		s.ints, s.runs, s.counted = blocks[uint32]{}, nil, 0
		in.each(func(x float64) { s.ints.add(uint32(x)) })
	}
}

// widen converts the stored integers to float64 blocks of the same shape, in
// storage order, and drops the integer blocks.
func (s *Sample) widen() {
	s.unfold()
	s.wide = true
	in := s.ints
	s.ints = blocks[uint32]{}
	s.floats.head = make([]float64, len(in.head), cap(in.head))
	for i, x := range in.head {
		s.floats.head[i] = float64(x)
	}
	if len(in.rest) == 0 {
		return
	}
	s.floats.rest = make([][]float64, len(in.rest), cap(in.rest))
	for i, b := range in.rest {
		f := make([]float64, len(b), blockLen)
		for j, x := range b {
			f[j] = float64(x)
		}
		s.floats.rest[i] = f
	}
}

func (b *blocks[T]) add(x T) {
	if len(b.rest) == 0 && len(b.head) < blockLen {
		b.head = append(b.head, x)
		return
	}
	last := len(b.rest) - 1
	if last < 0 || len(b.rest[last]) == blockLen {
		b.rest = append(b.rest, make([]T, 0, blockLen))
		last++
	}
	b.rest[last] = append(b.rest[last], x)
}

// AddAll records every observation of src, in ascending order: the order
// src.CDF(src.N()) yields them in.
func (s *Sample) AddAll(src *Sample) {
	src.sort()
	src.each(s.Add)
}

// N returns the number of observations.
func (s *Sample) N() int {
	if s.wide {
		return s.floats.n()
	}
	return s.counted + s.ints.n()
}

func (b *blocks[T]) n() int {
	if len(b.rest) == 0 {
		return len(b.head)
	}
	return len(b.rest)*blockLen + len(b.rest[len(b.rest)-1])
}

// at returns observation i in storage order. A counting Sample's order
// merges the runs into the pending block: ascending once that is sorted.
func (s *Sample) at(i int) float64 {
	if s.wide {
		return s.floats.at(i)
	}
	b := s.ints
	for _, r := range s.runs {
		for ; len(b.head) > 0 && b.head[0] < r.v; b.head, i = b.head[1:], i-1 {
			if i == 0 {
				return float64(b.head[0])
			}
		}
		if i -= int(r.n); i < 0 {
			return float64(r.v)
		}
	}
	return float64(b.at(i))
}

func (b *blocks[T]) at(i int) T {
	if i < blockLen {
		return b.head[i]
	}
	return b.rest[i/blockLen-1][i%blockLen]
}

// each calls f on every observation in storage order (at's order).
func (s *Sample) each(f func(float64)) {
	if s.wide {
		s.floats.each(f)
		return
	}
	b := s.ints
	for _, r := range s.runs {
		for ; len(b.head) > 0 && b.head[0] < r.v; b.head = b.head[1:] {
			f(float64(b.head[0]))
		}
		for range r.n {
			f(float64(r.v))
		}
	}
	b.each(func(x uint32) { f(float64(x)) })
}

func (b *blocks[T]) each(f func(T)) {
	for _, x := range b.head {
		f(x)
	}
	for _, blk := range b.rest {
		for _, x := range blk {
			f(x)
		}
	}
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	s.sort()
	if s.N() == 0 {
		return 0
	}
	return s.at(0)
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	s.sort()
	n := s.N()
	if n == 0 {
		return 0
	}
	return s.at(n - 1)
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Sample) Mean() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	var sum float64
	s.each(func(x float64) { sum += x })
	return sum / float64(n)
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Returns 0 on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	s.sort()
	n := s.N()
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s.at(0)
	}
	if p <= 0 {
		return s.at(0)
	}
	if p >= 100 {
		return s.at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.at(n - 1)
	}
	return s.at(lo)*(1-frac) + s.at(lo+1)*frac
}

// Median is Percentile(50).
func (s *Sample) Median() float64 { return s.Percentile(50) }

// CDF returns up to points (x, F(x)) pairs summarizing the empirical CDF,
// suitable for plotting or table dumps.
func (s *Sample) CDF(points int) [][2]float64 {
	s.sort()
	n := s.N()
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
		out = append(out, [2]float64{s.at(idx - 1), float64(idx) / float64(n)})
	}
	return out
}

// sort orders the observations as sort.Float64s orders one float64 slice of
// them. A narrow Sample sorts its integers: none is NaN or −0, so their order
// is the only one sort.Float64s could give.
func (s *Sample) sort() {
	if s.sorted {
		return
	}
	s.sorted = true
	if s.wide {
		s.floats.sort()
	} else {
		s.ints.sort()
	}
}

// sort runs slices.Sort, which is what sort.Float64s calls. A Sample of more
// than one block is gathered into one slice of exactly N, sorted there and
// copied back, so every block keeps its full capacity and a value copy sees
// the order as it would through a shared slice.
func (b *blocks[T]) sort() {
	if len(b.rest) == 0 {
		slices.Sort(b.head)
		return
	}
	all := append(make([]T, 0, b.n()), b.head...)
	for _, blk := range b.rest {
		all = append(all, blk...)
	}
	slices.Sort(all)
	all = all[copy(b.head, all):]
	for _, blk := range b.rest {
		all = all[copy(blk, all):]
	}
}

// JainFairness computes Jain's fairness index (sum x)^2 / (n * sum x^2),
// which is 1 for perfectly equal allocations and 1/n for a single hog.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Table is a minimal fixed-width text table writer for harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(cols ...string) *Table { return &Table{header: cols} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...any) {
	r := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			r[i] = fmt.Sprintf("%.3f", x)
		default:
			r[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, r)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < w[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
