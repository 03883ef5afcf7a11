package core

import (
	"testing"

	"acdc/internal/packet"
)

// TestAlphaSampledPerAckWithoutData pins a fidelity finding, queued for the
// re-bless (ROADMAP item 1(viii)), at today's counts. Figure 5 updates α once
// per window: when the ACK point passes alphaSeq, the snd_nxt snapshot taken
// at the previous update. On a direction that has sent no data, alphaSeq and
// SndNxt both stay at 1, so every ACK passes it: α decays by 15/16 per inbound
// segment and vcc_alpha takes one sample per packet. A direction that sends
// takes two per window of ten segments, one on the ACK that completes the
// window and one on the next window's first ACK.
func TestAlphaSampledPerAckWithoutData(t *testing.T) {
	b := newRecycleBench(t, DefaultConfig())
	samples := func() int64 {
		return b.v.Metrics.Snapshot().Histograms["vcc_alpha{alg=dctcp}"].Count
	}
	syn := packet.BuildSynOptions(1460, 7, true)
	const ack, psh = packet.FlagACK, packet.FlagPSH

	// Receive-only: the peer dials and sends, the local guest only ACKs,
	// every second segment.
	const rx, segs = 100, 40
	b.in(rx, packet.NotECT, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
	b.out(rx, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	start := samples()
	for i := uint32(0); i < segs; i++ {
		b.in(rx, packet.ECT0, packet.TCPFields{Seq: 1 + 1000*i, Ack: 1, Flags: ack | psh}, 1000)
		if i%2 == 1 {
			b.out(rx, packet.TCPFields{Seq: 1, Ack: 1 + 1000*(i+1), Flags: ack}, 0)
		}
	}
	alpha := initAlpha
	for range segs {
		alpha = (1-alphaGain)*alpha + alphaGain*0
	}
	f := b.v.Table.Get(b.key(rx))
	if got := samples() - start; got != segs || f.Alpha != alpha {
		t.Errorf("receive-only: %d inbound segments gave %d α samples and α %v; today's counts are %d and %v",
			segs, got, f.Alpha, segs, alpha)
	}

	// Send-only: the local guest sends windows of ten segments, the peer ACKs
	// every second one.
	const tx, windows = 200, 4
	b.out(tx, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
	b.in(tx, packet.NotECT, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
	start = samples()
	acks := 0
	for w := uint32(0); w < windows; w++ {
		for i := uint32(0); i < 10; i++ {
			b.out(tx, packet.TCPFields{Seq: 1 + 1000*(10*w+i), Ack: 1, Flags: ack | psh}, 1000)
		}
		for i := uint32(2); i <= 10; i += 2 {
			b.in(tx, packet.NotECT, packet.TCPFields{Seq: 1, Ack: 1 + 1000*(10*w+i), Flags: ack}, 0)
			acks++
		}
	}
	if got := samples() - start; got != 2*windows {
		t.Errorf("send-only: %d ACKs over %d windows gave %d α samples; today's count is %d", acks, windows, got, 2*windows)
	}
}
