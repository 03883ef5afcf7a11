package tcpstack

import (
	"testing"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// tsqLedger counts, per host, the bytes the guest's connections debit at
// transmit and the bytes txFree credits back to them, and how often a credit
// found less queued than it returned (the clamp in Conn.txCompleted).
type tsqLedger struct {
	debited, credited, foreign int64 // foreign: credits for packets the guest never sent
	clamps                     int
}

// watchTSQ wraps the egress hook and both credit paths of b's host i.
func watchTSQ(b *bench, i int) *tsqLedger {
	l := &tsqLedger{}
	h, st := b.hosts[i], b.stacks[i]
	sent := map[*packet.Packet]bool{}
	egress := h.Egress
	h.Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		l.debited += int64(p.IPLen())
		sent[p] = true
		return egress(p)
	}
	credit := func(p *packet.Packet) {
		ip := p.IP()
		t := ip.TCP()
		if c := st.conns.Get(makeKey(t.SrcPort(), ip.Dst(), t.DstPort())); c != nil {
			l.credited += int64(p.IPLen())
			if !sent[p] {
				l.foreign += int64(p.IPLen())
			}
			if c.nicQueued < int64(p.IPLen()) {
				l.clamps++
			}
		}
		delete(sent, p)
		st.txFree(p)
	}
	h.NIC.OnTxDone, h.OnTxFree = credit, credit
	return l
}

// TestTxFreeOverCreditsThroughACDC pins ROADMAP item 1(xi). Stack.txFree
// credits p.IPLen() at NIC departure to whichever connection the packet's
// ports name, so a connection behind AC/DC is credited the PACK option its
// vSwitch adds to an ACK, and every FACK the vSwitch sends in its name: bytes
// it never debited. Conn.txCompleted clamps nicQueued at 0 and hides the
// excess. A 4 MB transfer's receiver sends 1 455 ACKs: today each is
// credited 12 PACK bytes more than it debited, or, with PACK disabled, a
// 52-byte FACK besides, and each credit clamps. The fix credits what
// transmit debited and moves digests; until then this test holds today's
// counts.
func TestTxFreeOverCreditsThroughACDC(t *testing.T) {
	for _, tc := range []struct {
		name              string
		disablePACK       bool
		overRx, foreignRx int64
		clampsRx          int
	}{
		{"pack", false, 1455 * 12, 0, 1455},
		{"fack", true, 1455 * 52, 1455 * 52, 1455},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(t, 2, smallCfg(), netsim.REDConfig{MarkThresholdBytes: 30_000}, 10e9)
			acdc := core.DefaultConfig()
			acdc.MTU, acdc.DisablePACK = 1500, tc.disablePACK
			for _, h := range b.hosts {
				core.Attach(b.s, h, acdc)
			}
			tx, rx := watchTSQ(b, 0), watchTSQ(b, 1)
			cli, srv := b.transfer(t, 0, 1, 4<<20, 50*sim.Millisecond)
			if srv.Delivered != 4<<20 {
				t.Fatalf("delivered %d of %d bytes", srv.Delivered, 4<<20)
			}
			if tx.credited != tx.debited || tx.foreign != 0 || tx.clamps != 0 || cli.nicQueued != 0 {
				t.Errorf("sender: debited %d, credited %d (%d foreign), %d clamps, %d queued; want exact credit",
					tx.debited, tx.credited, tx.foreign, tx.clamps, cli.nicQueued)
			}
			if over := rx.credited - rx.debited; over != tc.overRx || rx.foreign != tc.foreignRx || rx.clamps != tc.clampsRx {
				t.Errorf("receiver: credited %d B over its %d B debited (%d B foreign), %d clamps; today's counts are %d, %d and %d",
					over, rx.debited, rx.foreign, rx.clamps, tc.overRx, tc.foreignRx, tc.clampsRx)
			}
		})
	}
}
