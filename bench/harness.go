package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"acdc/internal/stats"
)

// Calibration. This VM's processor moves between two speed states some 27 %
// apart, so before every timed interval the harness times a fixed
// register-only kernel and scales the interval by how slow the machine is just
// then compared with a fixed reference:
//
//	slowdown = cal / calRef
//	normalised time = t / slowdown, normalised rate = r × slowdown
//
// The constants are part of the instrument; changing them re-bases every
// number. README.md has the measured effect.
const (
	calIters = 500_000
	calRefNS = 1.5 * calIters // 3.0 ms per 2 M iterations
	calTries = 3              // interference only ever adds time: keep the minimum

	// slicesPerSecond fixes the work of a run from --seconds alone, so two
	// commits measured with the same flags simulate exactly the same span.
	slicesPerSecond = 20
)

var calSink uint64

//go:noinline
func calKernel(n int) uint64 {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	return acc
}

// slowdown times the kernel and returns how much slower than the reference
// the machine is just now.
func slowdown() float64 {
	best := math.MaxFloat64
	for i := 0; i < calTries; i++ {
		t := time.Now()
		calSink += calKernel(calIters)
		best = math.Min(best, float64(time.Since(t).Nanoseconds()))
	}
	return best / calRefNS
}

// span is one coarse interval the harness owns (set-up, a slice, a
// calibration, a drain). Spans stay in memory until the run ends.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Packets int64   `json:"packets,omitempty"` // slices only
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), spans: make([]span, 0, 1024)} }

func (l *spanLog) add(name string, start, end time.Time, packets int64) {
	l.spans = append(l.spans, span{name,
		float64(start.Sub(l.t0).Nanoseconds()) / 1e3, float64(end.Sub(l.t0).Nanoseconds()) / 1e3, packets})
}

func (l *spanLog) slowdown() float64 {
	start := time.Now()
	f := slowdown()
	l.add("calibrate", start, time.Now(), 0)
	return f
}

// counters are cumulative public counters read at the layer boundaries.
// They repeat exactly for a seed.
type counters struct {
	pkts        int64 // packets delivered to hosts (vswitch-10k: through the vSwitch)
	events      int64 // sim.Simulator.Processed
	hops        int64 // packets serialized by links
	drops       int64 // link drops, all reasons
	ceMarks     int64
	poolNews    int64
	poolOut     int64 // pool Gets − Puts: packets alive
	connsOpened int64
	retransSegs int64
	corePkts    int64 // vSwitch egress + ingress segments
	rwndRewrite int64
	flowsMade   int64
	flowsLive   int64
	failOpen    int64
	badCounters int64 // NoRoute + Blackholes + MalformedOptions: must stay 0
}

func (c counters) sub(b counters) counters {
	c.pkts -= b.pkts
	c.events -= b.events
	c.hops -= b.hops
	c.drops -= b.drops
	c.ceMarks -= b.ceMarks
	c.poolNews -= b.poolNews
	c.connsOpened -= b.connsOpened
	c.retransSegs -= b.retransSegs
	c.corePkts -= b.corePkts
	c.rwndRewrite -= b.rwndRewrite
	c.flowsMade -= b.flowsMade
	return c // poolOut, flowsLive, failOpen, badCounters are levels or must-be-zero totals
}

// outcome is what a fixture reports once its window is over and drained.
type outcome struct {
	goodputGbps float64 // simulated-time results; exact for a seed
	fairness    float64
	tailUS      float64
	tailN       int // samples behind tailUS
	opsTried    int64
	opsFailed   int64
	queueMaxKB  float64
	digest      uint64 // hash of everything the simulation produced
}

// fixture is one built and warmed-up workload.
type fixture interface {
	// slice advances the workload by one fixed unit of work and returns the
	// packets it handled.
	slice() int64
	pending() int // event-heap depth now
	counters() counters
	// startWindow marks the start of the measured window.
	startWindow()
	// finish stops the generators, drains, and reports.
	finish() outcome
}

type spec struct {
	name, why string
	// build constructs the fixture from the seed and runs its warm-up. scale
	// shrinks spans and table sizes for the smoke tests; 1 is the benchmark.
	build func(seed int64, scale float64) fixture
}

// passConfig selects one pass over one workload.
type passConfig struct {
	seed    int64
	seconds float64
	scale   float64
	setups  int  // set-ups timed; the last one is measured
	traced  bool // run the window under the CPU profiler
}

type passResult struct {
	workload   string
	traced     bool
	setupS     float64 // median, normalised
	wallS      float64 // raw wall seconds of the window, information only
	slowdown   float64 // median over the slices; 1 is the reference machine
	rate       float64 // pkts/s, normalised, median over slices
	rateRaw    float64
	rateP05    float64
	slices     int
	allocMB    float64
	heapLiveMB float64
	pendingMax int
	win        counters // window deltas
	out        outcome
	profile    []byte
	errs       []string
	spans      []span
	calWallS   float64 // wall seconds spent calibrating inside the window
}

func (r *passResult) failf(format string, a ...any) {
	r.errs = append(r.errs, r.workload+": "+fmt.Sprintf(format, a...))
}

func heapStats() (totalAlloc, heapAlloc uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.HeapAlloc
}

// runPass sets the workload up, measures one window and drains it.
func runPass(w spec, cfg passConfig) *passResult {
	r := &passResult{workload: w.name, traced: cfg.traced}
	log := newSpanLog()
	nSlices := int(math.Round(cfg.seconds * slicesPerSecond))
	if nSlices < 2 {
		nSlices = 2
	}
	var rates, raw, slows, setups stats.Sample

	// Set-up, several times over: the median is the metric, the last fixture
	// is the one measured.
	var fx fixture
	var alloc0 uint64
	for i := 0; i < cfg.setups; i++ {
		fx = nil
		runtime.GC()
		alloc0, _ = heapStats()
		slow := log.slowdown()
		t := time.Now()
		fx = w.build(cfg.seed, cfg.scale)
		end := time.Now()
		log.add("setup", t, end, 0)
		setups.Add(end.Sub(t).Seconds() / slow)
	}
	r.setupS = setups.Median()

	runtime.GC()
	fx.startWindow()
	before := fx.counters()
	r.pendingMax = fx.pending()
	var prof bytes.Buffer
	if cfg.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.failf("cpu profile: %v", err)
		}
	}
	winStart := time.Now()
	var sliceWall float64
	for i := 0; i < nSlices; i++ {
		slow := log.slowdown()
		t := time.Now()
		n := fx.slice()
		end := time.Now()
		log.add("slice", t, end, n)
		d := end.Sub(t).Seconds()
		sliceWall += d
		raw.Add(float64(n) / d)
		rates.Add(float64(n) / d * slow)
		slows.Add(slow)
		if p := fx.pending(); p > r.pendingMax {
			r.pendingMax = p
		}
	}
	r.wallS = time.Since(winStart).Seconds()
	r.calWallS = r.wallS - sliceWall
	if cfg.traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.win = fx.counters().sub(before)
	alloc1, _ := heapStats()
	r.allocMB = float64(alloc1-alloc0) / 1e6
	runtime.GC()
	_, live := heapStats()
	r.heapLiveMB = float64(live) / 1e6

	t := time.Now()
	r.out = fx.finish()
	log.add("drain", t, time.Now(), 0)
	end := fx.counters()

	r.slices = nSlices
	r.rate, r.rateRaw, r.rateP05 = rates.Median(), raw.Median(), rates.Percentile(5)
	r.slowdown = slows.Median()
	r.spans = log.spans

	// Correctness: the run fails, these are not metrics.
	if end.badCounters != 0 {
		r.failf("NoRoute+Blackholes+MalformedOptions = %d, want 0", end.badCounters)
	}
	if end.failOpen != 0 {
		r.failf("fail_open = %d, want 0", end.failOpen)
	}
	if end.poolOut != 0 {
		r.failf("pool Gets-Puts = %d after the drain, want 0", end.poolOut)
	}
	if r.win.pkts <= 0 {
		r.failf("no packets in the window")
	}
	return r
}

// digester hashes the simulation's outputs in the order they are added.
type digester struct{ hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) add(vs ...any) { fmt.Fprintln(d, vs...) }
