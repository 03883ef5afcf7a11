package netsim

import (
	"fmt"

	"acdc/internal/packet"
)

// held returns the packets the link owns: queued, propagating on the clean
// wire, or re-scheduled by a fault hook.
func (l *Link) held() int {
	return l.nQueued + l.nFlight + l.faultPending
}

// checkConservation audits the link's packet accounting: every accepted
// packet, plus every extra copy a fault hook delivered, is delivered, lost to
// the fault hook, discarded by Down, still queued, or still in flight.
func (l *Link) checkConservation() error {
	l.settle()
	in := l.Stats.EnquedPackets + l.dups
	out := l.delivered + l.Stats.DropsFault + l.discarded + int64(l.held())
	if in != out {
		return fmt.Errorf("link %s: accepted %d + duplicated %d != delivered %d + fault losses %d + discarded %d + queued %d + in flight %d",
			l.Name, l.Stats.EnquedPackets, l.dups, l.delivered, l.Stats.DropsFault, l.discarded,
			l.nQueued, l.nFlight+l.faultPending)
	}
	return nil
}

// checkConservation audits the pool against its ports: the bytes it holds
// are exactly the bytes its ports have queued.
func (b *SharedBuffer) checkConservation() error {
	b.settle()
	var queued int
	for _, l := range b.ports {
		queued += l.queueBytes
	}
	if b.used != queued {
		return fmt.Errorf("shared buffer: used %d B, but its %d ports queue %d B", b.used, len(b.ports), queued)
	}
	return nil
}

// CheckConservation audits a fabric: each link and each switch's shared
// buffer, and the pool, whose outstanding packets (Gets − Puts, plus the
// copies fault hooks made outside it) must be exactly the packets the links
// hold plus held, the count the caller knows other owners keep.
func CheckConservation(links []*Link, switches []*Switch, pool *packet.Pool, held int64) error {
	var dups int64
	for _, l := range links {
		if err := l.checkConservation(); err != nil {
			return err
		}
		held += int64(l.held())
		dups += l.dups
	}
	for _, sw := range switches {
		if sw.Buffer == nil {
			continue
		}
		if err := sw.Buffer.checkConservation(); err != nil {
			return fmt.Errorf("switch %s: %v", sw.Name, err)
		}
	}
	if pool != nil {
		if out := pool.Gets - pool.Puts + dups; out != held {
			return fmt.Errorf("pool: Gets %d − Puts %d + fault copies %d = %d outstanding, but %d are held",
				pool.Gets, pool.Puts, dups, out, held)
		}
	}
	return nil
}
