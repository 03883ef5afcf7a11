package cc

// DCTCP (Alizadeh et al., SIGCOMM 2010) scales the window cut to the
// fraction of ECN-marked bytes: cwnd ← cwnd·(1 − α/2), with α an EWMA
// (gain 1/16) of the per-window marking fraction. Growth follows Reno.
// Requires ECN with per-packet echo (the stack provides DCTCP-style
// accurate ECE feedback when this algorithm is selected).
type DCTCP struct {
	Base
	// G is the EWMA gain; Linux uses 1/16. Zero means 1/16.
	G float64
}

type dctcpState struct {
	alpha       float64
	ackedBytes  int64
	markedBytes int64
}

// DefaultDCTCPAlpha is the initial α (Linux starts at 1.0 so the first
// congestion event halves, then α adapts).
const DefaultDCTCPAlpha = 1.0

// Init implements Algorithm.
func (d *DCTCP) Init(c *Ctx) { initPriv(c, dctcpState{alpha: DefaultDCTCPAlpha}) }

func (d *DCTCP) state(c *Ctx) *dctcpState {
	s, ok := c.priv.(*dctcpState)
	if !ok { // Init never ran on c
		d.Init(c)
		s = c.priv.(*dctcpState)
	}
	return s
}

func (d *DCTCP) gain() float64 {
	if d.G > 0 {
		return d.G
	}
	return 1.0 / 16
}

// Alpha exposes the current marking-fraction estimate (for tests).
func (d *DCTCP) Alpha(c *Ctx) float64 { return d.state(c).alpha }

// CongAvoid implements Algorithm: Reno growth.
func (*DCTCP) CongAvoid(c *Ctx, acked int) { renoGrow(c, acked) }

// AckedWithECN implements Algorithm: accumulate the marking fraction inputs.
func (d *DCTCP) AckedWithECN(c *Ctx, acked int, ece bool) {
	s := d.state(c)
	s.ackedBytes += int64(acked)
	if ece {
		s.markedBytes += int64(acked)
	}
}

// WindowBoundary is called by the stack once per RTT (when snd_una passes
// the boundary snapshot): fold the window's marking fraction into α.
func (d *DCTCP) WindowBoundary(c *Ctx) {
	s := d.state(c)
	var frac float64
	if s.ackedBytes > 0 {
		frac = float64(s.markedBytes) / float64(s.ackedBytes)
	}
	g := d.gain()
	s.alpha = (1-g)*s.alpha + g*frac
	s.ackedBytes, s.markedBytes = 0, 0
}

// SsthreshOnLoss implements Algorithm: cwnd·(1 − α/2), floor 2 MSS (the
// Linux lower bound the paper calls out in the incast analysis).
func (d *DCTCP) SsthreshOnLoss(c *Ctx) float64 {
	s := d.state(c)
	return max(c.Cwnd*(1-s.alpha/2), 2)
}

// OnRTO implements Algorithm: Linux dctcp resets α to the max on timeout via
// loss handling; keep α as-is (EWMA) matching tcp_dctcp.c which leaves α.
func (d *DCTCP) OnRTO(c *Ctx) {}
