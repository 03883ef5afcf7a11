// Package tcpstack implements the guest-VM TCP endpoints: connection setup
// with window-scale negotiation, NewReno loss recovery (fast retransmit,
// partial ACKs, RTO with Karn's algorithm), delayed ACKs, flow control,
// RFC 3168 and DCTCP-style ECN, and pluggable congestion control from
// internal/cc. It models the Linux 3.18 stacks the paper runs in guests.
//
// Internally all sequence arithmetic uses absolute 64-bit byte offsets from
// the ISS; offsets are mapped to 32-bit wire sequence numbers at the packet
// boundary, so multi-gigabyte flows cannot hit wraparound bugs.
package tcpstack

import (
	"acdc/internal/sim"
)

// ECNMode selects the endpoint's ECN behaviour.
type ECNMode int

const (
	// ECNOff: no ECN negotiation; packets are Not-ECT (the paper's CUBIC
	// baseline guests).
	ECNOff ECNMode = iota
	// ECNRFC3168: classic ECN — latch ECE until CWR, react once per window.
	ECNRFC3168
	// ECNDCTCP: DCTCP-style per-segment CE echo with immediate ACKs on CE
	// state changes.
	ECNDCTCP
)

func (m ECNMode) String() string {
	switch m {
	case ECNOff:
		return "off"
	case ECNRFC3168:
		return "rfc3168"
	default:
		return "dctcp"
	}
}

// The guest's fixed Linux settings, the same for every stack the paper runs.
const (
	// initCwnd is the initial window in MSS (RFC 6928's 10).
	initCwnd = 10
	// minCwnd is the window floor in MSS. Linux's DCTCP floor of 2 is the
	// behaviour the paper's incast analysis calls out.
	minCwnd = 2
	// wscale is the receive window scale factor every stack advertises.
	wscale = 7
	// rtoInit is the timeout before the first RTT sample.
	rtoInit = 100 * sim.Millisecond
	// delAckDelay is the delayed-ACK timer; delAckSegs full segments force
	// an immediate ACK.
	delAckDelay = 500 * sim.Microsecond
	delAckSegs  = 2
	// tsqLimit bounds the bytes a connection may have queued in the host
	// NIC, modelling Linux's TCP Small Queues: without it a self-clocked
	// flow parks its whole window in its own NIC queue.
	tsqLimit = 128 << 10
)

// Config parameterizes a Stack; every connection of the stack runs it. The
// zero value is not usable; call DefaultConfig and override.
type Config struct {
	// MTU is the link MTU; MSS = MTU − 40. The paper evaluates 1500 and 9000.
	MTU int
	// CC is the congestion-control algorithm name (see internal/cc.New).
	CC string
	// ECN selects the ECN mode. DCTCP requires ECNDCTCP to function.
	ECN ECNMode
	// CwndClamp caps cwnd in MSS (snd_cwnd_clamp); 0 = unlimited.
	CwndClamp float64
	// RcvBuf is the receive buffer in bytes (advertised window ceiling).
	RcvBuf int
	// RTOMin floors the retransmission timeout; the paper sets 10ms.
	RTOMin sim.Duration
	// IgnoreRwnd, when true, makes the sender disregard the peer's
	// advertised receive window — a non-conforming stack used to evaluate
	// AC/DC's policing mechanism (§3.3).
	IgnoreRwnd bool
	// SACK enables selective acknowledgements (RFC 2018) with SACK-based
	// loss recovery; the paper's testbed sets tcp_sack=1.
	SACK bool
}

// DefaultConfig returns the paper's system settings: 9KB MTU, CUBIC,
// RTOmin=10ms, 4MB receive buffer.
func DefaultConfig() Config {
	return Config{
		MTU:    9000,
		CC:     "cubic",
		ECN:    ECNOff,
		RcvBuf: 4 << 20,
		RTOMin: 10 * sim.Millisecond,
		SACK:   true,
	}
}

// MSS returns the segment payload size for the configured MTU.
func (c Config) MSS() int { return c.MTU - 40 }

// timeWait returns the TIME_WAIT duration (2 MSL).
func (c Config) timeWait() sim.Duration { return 4 * c.RTOMin }
