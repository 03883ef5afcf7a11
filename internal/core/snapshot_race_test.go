package core

import (
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// TestSnapshotConcurrentWithDatapath is the warm-restart interleaving
// regression: SaveSnapshot / RestoreSnapshot — including corrupt restores,
// which reset the table in place — and Detach / Reattach land between the
// packets of several flows, the way the daemon's command queue delivers them:
// as events on the simulation goroutine. The assertions pin that the
// accounting survives the interleaving (gauge == table size).
func TestSnapshotConcurrentWithDatapath(t *testing.T) {
	v, host, s := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)

	const flows = 8
	const rounds = 1500
	const ctrlCycles = 200
	seqs := [flows]uint32{}
	for i := range seqs {
		seqs[i] = 1
	}
	n := 0
	var tick func()
	tick = func() {
		i := n % flows
		sp, dp := uint16(100+i), uint16(200+i)
		egress(v, dataPkt(host.Addr, peer, sp, dp, seqs[i], 100))
		seqs[i] += 100
		ingress(v, ackPkt(peer, host.Addr, dp, sp, seqs[i], 65535))
		if n++; n < rounds {
			s.ScheduleFunc(100, tick)
		}
	}
	s.ScheduleFunc(0, tick)

	// One control operation every 730 ns: staggered against the packets
	// (every 100 ns), so each lands between two of them.
	var snap []byte
	for i := 0; i < ctrlCycles; i++ {
		op := i % 5
		s.ScheduleFunc(sim.Duration(50+730*i), func() {
			switch op {
			case 0:
				snap = v.SaveSnapshot()
			case 1, 2:
				if err := v.RestoreSnapshot(snap); err != nil {
					t.Errorf("restore of a saved snapshot failed: %v", err)
				}
			case 3:
				// Corrupt restore: must fail open (in-place table reset)
				// without disturbing the traffic around it.
				if err := v.RestoreSnapshot([]byte("garbage")); err == nil {
					t.Error("corrupt restore did not error")
				}
			case 4:
				v.Detach()
				v.Reattach()
			}
		})
	}
	s.RunAll()

	if !v.Attached() {
		t.Fatal("Detach/Reattach left the datapath detached")
	}
	if gauge, tbl := v.Metrics.FlowTableSize.Value(), int64(v.Table.Len()); gauge != tbl {
		t.Fatalf("flow_table_size gauge %d != table len %d after interleaved restarts", gauge, tbl)
	}
	st := v.Stats()
	if st.SnapshotSaves == 0 || st.SnapshotRestores == 0 || st.SnapshotCorrupt == 0 {
		t.Fatalf("controller did not exercise all paths: %+v", st)
	}
}

// TestFinRevSetUnderItsOwnLock is the regression for a FIN arriving from the
// network: the receiver module marks finRev on the reverse record — the data
// direction's, which SaveSnapshot records — not on the record the FIN was
// counted on. Snapshots land between the packets, and the last one, taken
// after every FIN, must carry finRev on every data direction.
func TestFinRevSetUnderItsOwnLock(t *testing.T) {
	v, host, s := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	fin := func(sp, dp uint16, ack uint32) *packet.Packet {
		return packet.Build(peer, host.Addr, packet.NotECT, packet.TCPFields{
			SrcPort: dp, DstPort: sp, Seq: 1, Ack: ack,
			Flags: packet.FlagACK | packet.FlagFIN, Window: 65535}, 0)
	}

	const rounds = 2000
	n := 0
	var snap []byte
	var tick func()
	tick = func() {
		sp, dp := uint16(100+n%8), uint16(200+n%8)
		egress(v, dataPkt(host.Addr, peer, sp, dp, 1, 100))
		ingress(v, fin(sp, dp, 101))
		if n++; n < rounds {
			s.ScheduleFunc(100, tick)
		}
		s.ScheduleFunc(50, func() { snap = v.SaveSnapshot() })
	}
	s.ScheduleFunc(0, tick)
	s.RunAll()

	_, recs, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	saved := map[FlowKey]flowRecord{}
	for _, r := range recs {
		saved[r.Key] = r
	}
	for i := 0; i < 8; i++ {
		k := FlowKey{Src: host.Addr, Dst: peer, SPort: uint16(100 + i), DPort: uint16(200 + i)}
		f := v.Table.Get(k)
		if f == nil {
			t.Fatalf("flow %d not tracked", i)
		}
		if !f.finRev || !saved[k].finRev {
			t.Fatalf("flow %d: the peer's FIN did not reach the data direction's record (live %v, saved %v)",
				i, f.finRev, saved[k].finRev)
		}
	}
}
