package tcpstack

import "acdc/internal/cc"

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// BytesQueued returns app bytes not yet acknowledged by the peer.
func (c *Conn) BytesQueued() int64 {
	q := 1 + c.appEnd - c.sndUna
	if q < 0 {
		q = 0
	}
	return q
}

// Algorithm exposes the congestion-control algorithm (instrumentation).
func (c *Conn) Algorithm() cc.Algorithm { return c.alg }

// OOORanges returns the count of buffered out-of-order ranges (tests).
func (c *Conn) OOORanges() int { return len(c.ooo) }
