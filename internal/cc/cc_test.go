package cc

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func newCtx(mss int) *Ctx {
	return &Ctx{MSS: mss, Cwnd: 10, Ssthresh: math.Inf(1)}
}

func TestNewRegistry(t *testing.T) {
	for _, name := range Names() {
		a := New(name)
		if a == nil {
			t.Fatalf("New(%q) = nil", name)
		}
		c := newCtx(1500)
		a.Init(c)
		a.CongAvoid(c, 1500)
	}
	// Aliases.
	if _, ok := New("newreno").(*NewReno); !ok {
		t.Fatal("newreno alias broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown name should panic")
		}
	}()
	New("bbr")
}

func TestRenoSlowStartDoublesPerRTT(t *testing.T) {
	a := New("reno")
	c := newCtx(1500)
	a.Init(c)
	// One window's worth of ACKs in slow start ≈ doubles cwnd.
	start := c.Cwnd
	for i := 0; i < int(start); i++ {
		a.CongAvoid(c, 1500)
	}
	if math.Abs(c.Cwnd-2*start) > 0.01 {
		t.Fatalf("slow start: cwnd = %v, want %v", c.Cwnd, 2*start)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	a := New("reno")
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 10, 5 // in CA
	// One window of ACKs grows cwnd by ~1 MSS.
	before := c.Cwnd
	for i := 0; i < 10; i++ {
		a.CongAvoid(c, 1500)
	}
	if c.Cwnd-before < 0.9 || c.Cwnd-before > 1.1 {
		t.Fatalf("CA growth per RTT = %v, want ~1", c.Cwnd-before)
	}
}

func TestRenoSlowStartExitsAtSsthresh(t *testing.T) {
	a := New("reno")
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 9.5, 10
	a.CongAvoid(c, 3000) // 2 MSS acked crosses ssthresh
	// 0.5 consumed by slow start, remaining 1.5 in CA: 10 + 1.5/10.
	if math.Abs(c.Cwnd-10.15) > 0.01 {
		t.Fatalf("cwnd = %v, want 10.15", c.Cwnd)
	}
}

func TestRenoLossHalves(t *testing.T) {
	a := New("reno")
	c := newCtx(1500)
	c.Cwnd = 20
	if got := a.SsthreshOnLoss(c); got != 10 {
		t.Fatalf("ssthresh = %v", got)
	}
	c.Cwnd = 2
	if got := a.SsthreshOnLoss(c); got != 2 {
		t.Fatalf("floor: ssthresh = %v", got)
	}
}

func TestCtxClamp(t *testing.T) {
	c := newCtx(1500)
	c.Cwnd, c.CwndClamp = 100, 50
	c.ClampCwnd(2)
	if c.Cwnd != 50 {
		t.Fatalf("clamp ceiling: %v", c.Cwnd)
	}
	c.Cwnd = 0.5
	c.ClampCwnd(2)
	if c.Cwnd != 2 {
		t.Fatalf("clamp floor: %v", c.Cwnd)
	}
}

func TestCubicConvexGrowthAfterPlateau(t *testing.T) {
	a := New("cubic").(*Cubic)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 100, 1 // CA
	c.SRTT = int64(100e3)       // 100us

	// Simulate a loss then growth over time: window should first grow
	// slowly (concave toward wMax) then accelerate (convex).
	c.Ssthresh = a.SsthreshOnLoss(c)
	c.Cwnd = c.Ssthresh // 70
	// K = cbrt(Wmax·0.3/0.4) ≈ 4.2s for Wmax=100; run well past it.
	var deltas []float64
	prev := c.Cwnd
	for step := 0; step < 60; step++ {
		c.Now += int64(150e6) // 150ms steps → 9s total
		for i := 0; i < 10; i++ {
			a.CongAvoid(c, 1500)
		}
		deltas = append(deltas, c.Cwnd-prev)
		prev = c.Cwnd
	}
	// Growth near the end (past K, convex region) must exceed growth at the
	// plateau (around K).
	kIdx := 28 // ≈4.2s
	if deltas[len(deltas)-1] <= deltas[kIdx] {
		t.Fatalf("cubic growth not accelerating: plateau=%v end=%v", deltas[kIdx], deltas[len(deltas)-1])
	}
	if c.Cwnd <= 100 {
		t.Fatalf("cubic did not recover past wMax: %v", c.Cwnd)
	}
}

func TestCubicBetaDecrease(t *testing.T) {
	a := New("cubic")
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd = 100
	got := a.SsthreshOnLoss(c)
	if math.Abs(got-70) > 0.01 {
		t.Fatalf("cubic ssthresh = %v, want 70", got)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	a := New("cubic").(*Cubic)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd = 100
	a.SsthreshOnLoss(c) // wLastMax = 100
	c.Cwnd = 80         // second loss below previous max
	a.SsthreshOnLoss(c)
	s := c.priv.(*cubicState)
	if s.wMax >= 80 {
		t.Fatalf("fast convergence should set wMax below cwnd: %v", s.wMax)
	}
}

func TestDCTCPAlphaConvergesToMarkingFraction(t *testing.T) {
	a := New("dctcp").(*DCTCP)
	c := newCtx(1500)
	a.Init(c)
	// 30% of bytes marked, many windows: α → 0.3.
	for w := 0; w < 200; w++ {
		a.AckedWithECN(c, 7000, false)
		a.AckedWithECN(c, 3000, true)
		a.WindowBoundary(c)
	}
	if math.Abs(a.Alpha(c)-0.3) > 0.01 {
		t.Fatalf("alpha = %v, want 0.3", a.Alpha(c))
	}
}

func TestDCTCPSsthreshScalesWithAlpha(t *testing.T) {
	a := New("dctcp").(*DCTCP)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd = 100
	// Fresh state: α=1 → halve.
	if got := a.SsthreshOnLoss(c); got != 50 {
		t.Fatalf("initial ssthresh = %v, want 50", got)
	}
	// Drive α to ~0.2: cut should be cwnd·0.9.
	for w := 0; w < 300; w++ {
		a.AckedWithECN(c, 8000, false)
		a.AckedWithECN(c, 2000, true)
		a.WindowBoundary(c)
	}
	got := a.SsthreshOnLoss(c)
	if math.Abs(got-90) > 1 {
		t.Fatalf("ssthresh = %v, want ~90 at α≈0.2", got)
	}
}

func TestDCTCPZeroMarksDecaysAlpha(t *testing.T) {
	a := New("dctcp").(*DCTCP)
	c := newCtx(1500)
	a.Init(c)
	for w := 0; w < 100; w++ {
		a.AckedWithECN(c, 10000, false)
		a.WindowBoundary(c)
	}
	if a.Alpha(c) > 0.01 {
		t.Fatalf("alpha should decay to ~0: %v", a.Alpha(c))
	}
}

func TestVegasHoldsQueueBetweenAlphaBeta(t *testing.T) {
	a := New("vegas").(*Vegas)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 10, 1 // CA
	base := int64(100e3)

	// RTT == baseRTT: no queue → grow.
	a.PktsAcked(c, base)
	before := c.Cwnd
	a.WindowBoundary(c)
	if c.Cwnd != before+1 {
		t.Fatalf("no-queue: cwnd = %v, want +1", c.Cwnd)
	}

	// Heavy queueing (diff >> β): all of this window's samples are high
	// (baseRTT persists from the earlier window).
	a.PktsAcked(c, 2*base) // rtt doubled → diff = cwnd/2 > 4
	before = c.Cwnd
	a.WindowBoundary(c)
	if c.Cwnd >= before {
		t.Fatalf("queueing: cwnd = %v, want decrease from %v", c.Cwnd, before)
	}

	// Moderate diff in [α, β]: hold. cwnd≈10, need diff in (2,4): rtt such
	// that cwnd·(rtt-base)/rtt ≈ 3 → rtt = base/0.7.
	a.PktsAcked(c, int64(float64(base)/0.7))
	before = c.Cwnd
	a.WindowBoundary(c)
	if c.Cwnd != before {
		t.Fatalf("hold region: cwnd = %v, want %v", c.Cwnd, before)
	}
}

func TestVegasSlowStartExitOnDelay(t *testing.T) {
	a := New("vegas").(*Vegas)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 10, 100 // slow start
	// Window 1 establishes baseRTT; window 2 sees only inflated RTTs.
	a.PktsAcked(c, 100e3)
	a.WindowBoundary(c)
	a.PktsAcked(c, 150e3) // diff = 11*(50/150) = 3.67 > γ=1
	a.WindowBoundary(c)
	if c.Ssthresh > 10 {
		t.Fatalf("vegas should exit slow start: ssthresh = %v", c.Ssthresh)
	}
}

func TestIllinoisAlphaRespondsToDelay(t *testing.T) {
	a := New("illinois").(*Illinois)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 10, 1
	base := int64(100e3)

	// Establish base and max RTT (max 10x base).
	a.PktsAcked(c, base)
	a.PktsAcked(c, 10*base)
	a.WindowBoundary(c)

	// Low delay for θ=5 consecutive windows → α = αmax.
	for i := 0; i < 6; i++ {
		a.PktsAcked(c, base)
		a.WindowBoundary(c)
	}
	s := c.priv.(*illinoisState)
	if s.alpha != illAlphaMax {
		t.Fatalf("low-delay α = %v, want %v", s.alpha, illAlphaMax)
	}
	if s.beta != illBetaMin {
		t.Fatalf("low-delay β = %v, want %v", s.beta, illBetaMin)
	}

	// High delay → α small, β large.
	a.PktsAcked(c, 9*base)
	a.WindowBoundary(c)
	if s.alpha > 1.0 {
		t.Fatalf("high-delay α = %v, want < 1", s.alpha)
	}
	if s.beta != illBetaMax {
		t.Fatalf("high-delay β = %v, want %v", s.beta, illBetaMax)
	}
}

func TestIllinoisGrowthUsesAlpha(t *testing.T) {
	a := New("illinois").(*Illinois)
	c := newCtx(1500)
	a.Init(c)
	c.Cwnd, c.Ssthresh = 10, 1
	s := c.priv.(*illinoisState)
	s.alpha = 10
	before := c.Cwnd
	for i := 0; i < 10; i++ { // one window of ACKs
		a.CongAvoid(c, 1500)
	}
	// Growth ≈ α per RTT.
	if c.Cwnd-before < 5 {
		t.Fatalf("illinois growth = %v, want ~10", c.Cwnd-before)
	}
}

func TestHighSpeedResponseFunction(t *testing.T) {
	// At and below w=38 HighSpeed must behave exactly like Reno.
	if hsA(38) != 1 || hsB(38) != 0.5 {
		t.Fatalf("a(38)=%v b(38)=%v", hsA(38), hsB(38))
	}
	if hsA(10) != 1 || hsB(10) != 0.5 {
		t.Fatal("below lowWindow must be Reno")
	}
	// a grows and b shrinks with w.
	if !(hsA(1000) > hsA(100) && hsA(100) > 1) {
		t.Fatalf("a not increasing: a(100)=%v a(1000)=%v", hsA(100), hsA(1000))
	}
	if !(hsB(1000) < hsB(100) && hsB(100) < 0.5) {
		t.Fatalf("b not decreasing: b(100)=%v b(1000)=%v", hsB(100), hsB(1000))
	}
	if math.Abs(hsB(83000)-0.1) > 1e-9 {
		t.Fatalf("b(83000) = %v, want 0.1", hsB(83000))
	}
	// RFC 3649 anchor: a(83000) ≈ 72-73.
	if hsA(83000) < 60 || hsA(83000) > 80 {
		t.Fatalf("a(83000) = %v, want ~72", hsA(83000))
	}
}

func TestHighSpeedMoreAggressiveThanReno(t *testing.T) {
	hs, rn := New("highspeed"), New("reno")
	ch, cr := newCtx(1500), newCtx(1500)
	hs.Init(ch)
	rn.Init(cr)
	ch.Cwnd, ch.Ssthresh = 200, 1
	cr.Cwnd, cr.Ssthresh = 200, 1
	for i := 0; i < 200; i++ {
		hs.CongAvoid(ch, 1500)
		rn.CongAvoid(cr, 1500)
	}
	if ch.Cwnd <= cr.Cwnd {
		t.Fatalf("highspeed %v not more aggressive than reno %v", ch.Cwnd, cr.Cwnd)
	}
	// And loses less on decrease.
	if hs.SsthreshOnLoss(ch) <= rn.SsthreshOnLoss(cr)*ch.Cwnd/cr.Cwnd {
		t.Fatal("highspeed decrease not milder than reno")
	}
}

// Property: no algorithm ever produces a non-positive or NaN window under
// random ACK/loss sequences.
func TestAlgorithmsStayFiniteProperty(t *testing.T) {
	for _, name := range Names() {
		name := name
		prop := func(ops []byte) bool {
			a := New(name)
			c := newCtx(1500)
			c.Ssthresh = 64
			a.Init(c)
			for i, op := range ops {
				c.Now += int64(i) * 1e6
				switch op % 5 {
				case 0, 1, 2:
					a.CongAvoid(c, int(op)*100+1)
				case 3:
					c.Ssthresh = a.SsthreshOnLoss(c)
					c.Cwnd = c.Ssthresh
				case 4:
					a.PktsAcked(c, int64(op)*1000+1)
					a.AckedWithECN(c, 1500, op%2 == 0)
				}
				c.ClampCwnd(1)
				if math.IsNaN(c.Cwnd) || math.IsInf(c.Cwnd, 0) || c.Cwnd < 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Property: SsthreshOnLoss never exceeds the current window and never goes
// below the 2-MSS floor.
func TestSsthreshBoundsProperty(t *testing.T) {
	for _, name := range Names() {
		a := New(name)
		prop := func(w uint16) bool {
			c := newCtx(1500)
			a.Init(c)
			c.Cwnd = float64(w%5000) + 2
			got := a.SsthreshOnLoss(c)
			return got >= 2 && got <= c.Cwnd+1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestInitResetsRecycledStateInPlace: for every algorithm, Init on a context
// whose private state a previous connection dirtied leaves exactly what Init
// on a new context does — DCTCP's initial α and the Illinois/Vegas "no RTT
// yet" sentinels included — and reuses that state's allocation. A context
// recycled from a different algorithm gets the right state type.
func TestInitResetsRecycledStateInPlace(t *testing.T) {
	dirty := func(a Algorithm, c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Now += 100_000
			a.PktsAcked(c, int64(80_000+1000*i))
			a.AckedWithECN(c, 1500, i%3 == 0)
			a.CongAvoid(c, 1500)
			if b, ok := a.(interface{ WindowBoundary(*Ctx) }); ok && i%10 == 9 {
				b.WindowBoundary(c)
			}
		}
		c.Ssthresh = a.SsthreshOnLoss(c)
		c.Cwnd = c.Ssthresh
		for i := 0; i < 20; i++ {
			c.Now += 100_000
			a.CongAvoid(c, 1500)
		}
		a.OnRTO(c)
	}
	next := Ctx{MSS: 1460, Cwnd: 10, Ssthresh: 1 << 30, Now: 5}
	names := append(Names(), "newreno")
	for i, name := range names {
		a := New(name)
		want := next
		a.Init(&want)

		old := newCtx(1500)
		a.Init(old)
		dirty(a, old)
		if want.priv != nil && reflect.DeepEqual(old.priv, want.priv) {
			t.Errorf("%s: private state still pristine after the dirtying run", name)
		}
		got := next.Recycle(old)
		if allocs := testing.AllocsPerRun(10, func() {
			got = next.Recycle(old)
			a.Init(&got)
		}); allocs != 0 {
			t.Errorf("%s: Init on a recycled context: %v allocs, want 0", name, allocs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled context %+v (priv %+v), new context %+v (priv %+v)",
				name, got, got.priv, want, want.priv)
		}
		if want.priv != nil && got.priv != old.priv {
			t.Errorf("%s: Init replaced the private state instead of resetting it", name)
		}

		// The same record passes to the next algorithm in the list.
		nameB := names[(i+1)%len(names)]
		b := New(nameB)
		wantB, gotB := next, next.Recycle(old)
		b.Init(&wantB)
		b.Init(&gotB)
		if !reflect.DeepEqual(gotB, wantB) {
			t.Errorf("%s after %s: context %+v (priv %+v), want %+v (priv %+v)",
				nameB, name, gotB, gotB.priv, wantB, wantB.priv)
		}
	}
}
