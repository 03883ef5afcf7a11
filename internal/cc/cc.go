// Package cc implements the host (guest-VM) TCP congestion-control variants
// the paper evaluates — NewReno, CUBIC, DCTCP, Vegas, Illinois, HighSpeed —
// plus a window-based TIMELY (the paper's other cited datacenter CC). Each
// is modelled on its Linux implementation's control law where one exists. The TCP
// endpoint (internal/tcpstack) owns the connection state and calls into the
// Algorithm at the same points Linux calls its congestion-ops vtable.
package cc

import "fmt"

// Ctx is the view of connection state an Algorithm operates on. Cwnd and
// Ssthresh are in MSS units (Linux counts packets); times are nanoseconds of
// simulated time.
type Ctx struct {
	MSS      int
	Cwnd     float64
	Ssthresh float64

	// SRTT and MinRTT are the smoothed and minimum observed RTT in ns
	// (0 until the first sample).
	SRTT   int64
	MinRTT int64

	// Now is the current simulated time, refreshed by the stack before any
	// algorithm call.
	Now int64

	// CwndClamp caps Cwnd in MSS units when > 0 (snd_cwnd_clamp).
	CwndClamp float64

	// priv holds algorithm-private state: a pointer Init installs, and resets
	// in place when it already has the algorithm's type (see Recycle).
	priv any
}

// Recycle returns c with the algorithm-private state of old, a context whose
// connection has ended. Init on the result then resets that state in place
// instead of allocating it, provided the algorithm is the same kind as
// before; any other algorithm replaces it.
func (c Ctx) Recycle(old *Ctx) Ctx {
	c.priv = old.priv
	return c
}

// initPriv points c.priv at a T holding v, reusing the T already there.
func initPriv[T any](c *Ctx, v T) {
	s, ok := c.priv.(*T)
	if !ok {
		s = new(T)
		c.priv = s
	}
	*s = v
}

// InSlowStart reports whether the connection is in slow start.
func (c *Ctx) InSlowStart() bool { return c.Cwnd < c.Ssthresh }

// ClampCwnd applies the floor (minCwnd) and the optional CwndClamp ceiling.
func (c *Ctx) ClampCwnd(minCwnd float64) {
	if c.CwndClamp > 0 && c.Cwnd > c.CwndClamp {
		c.Cwnd = c.CwndClamp
	}
	if c.Cwnd < minCwnd {
		c.Cwnd = minCwnd
	}
}

// Algorithm is the congestion-control vtable, mirroring Linux's
// tcp_congestion_ops: CongAvoid grows the window on ACKs, SsthreshOnLoss
// returns the window target after a loss/ECE event, PktsAcked receives RTT
// samples, AckedWithECN feeds DCTCP-style byte accounting, and OnRTO resets
// algorithm state after a timeout.
type Algorithm interface {
	Name() string
	Init(c *Ctx)
	// CongAvoid is called for each ACK that advances snd_una while the
	// connection is in open state; acked is the number of newly acked bytes.
	CongAvoid(c *Ctx, acked int)
	// SsthreshOnLoss returns the new ssthresh (in MSS) reacting to loss or
	// an ECN echo. The stack sets Cwnd separately per its recovery logic.
	SsthreshOnLoss(c *Ctx) float64
	// PktsAcked delivers an RTT sample (ns) for delay-based algorithms.
	PktsAcked(c *Ctx, rtt int64)
	// AckedWithECN reports acked bytes and whether the ACK carried an ECN
	// echo; DCTCP uses it to estimate the marking fraction.
	AckedWithECN(c *Ctx, acked int, ece bool)
	// OnRTO notifies of a retransmission timeout.
	OnRTO(c *Ctx)
	// UndoCwnd returns the window to restore on spurious loss detection.
	UndoCwnd(c *Ctx) float64
}

// Base provides no-op implementations of the optional hooks.
type Base struct{}

// Init implements Algorithm: no private state, and none kept from a recycled
// context's previous algorithm.
func (Base) Init(c *Ctx) { c.priv = nil }

// PktsAcked implements Algorithm.
func (Base) PktsAcked(*Ctx, int64) {}

// AckedWithECN implements Algorithm.
func (Base) AckedWithECN(*Ctx, int, bool) {}

// OnRTO implements Algorithm.
func (Base) OnRTO(*Ctx) {}

// UndoCwnd implements Algorithm: restore to 2x current ssthresh like Linux's
// default tcp_reno_undo_cwnd.
func (Base) UndoCwnd(c *Ctx) float64 { return max(c.Cwnd, c.Ssthresh*2) }

// New constructs an algorithm by name ("cubic", "reno", "dctcp", "vegas",
// "illinois", "highspeed", "timely"). It panics on unknown names —
// configuration errors in experiments should fail loudly.
func New(name string) Algorithm {
	switch name {
	case "reno", "newreno":
		return &NewReno{}
	case "cubic":
		return &Cubic{}
	case "dctcp":
		return &DCTCP{}
	case "vegas":
		return &Vegas{}
	case "illinois":
		return &Illinois{}
	case "highspeed":
		return &HighSpeed{}
	case "timely":
		return &Timely{}
	default:
		panic(fmt.Sprintf("cc: unknown congestion control %q", name))
	}
}

// renoGrow implements the classic slow-start + congestion-avoidance growth
// shared by NewReno-style algorithms: exponential below ssthresh, then one
// MSS per RTT (approximated per-byte as Linux does).
func renoGrow(c *Ctx, acked int) {
	ackedPkts := float64(acked) / float64(c.MSS)
	if c.InSlowStart() {
		// Slow start: cwnd grows by one MSS per acked MSS, not beyond
		// ssthresh mid-ACK (Linux tcp_slow_start).
		room := c.Ssthresh - c.Cwnd
		grow := ackedPkts
		if grow > room {
			grow = room
			// Remainder is consumed by congestion avoidance below.
			c.Cwnd += grow
			caGrow(c, ackedPkts-grow)
			return
		}
		c.Cwnd += grow
		return
	}
	caGrow(c, ackedPkts)
}

func caGrow(c *Ctx, ackedPkts float64) {
	if c.Cwnd <= 0 {
		c.Cwnd = 1
	}
	c.Cwnd += ackedPkts / c.Cwnd
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
