package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"acdc/internal/packet"
)

// TestSnapshotConcurrentWithDatapath is the warm-restart race regression: a
// control-plane goroutine loops SaveSnapshot / RestoreSnapshot — including
// corrupt restores, which reset the table in place — and flips Detach /
// Reattach, while the simulation goroutine pushes packets through several
// flows. Run with -race; the assertions pin that the accounting survives the
// interleaving (gauge == table size) with no torn flow state.
func TestSnapshotConcurrentWithDatapath(t *testing.T) {
	v, host, s := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)

	const flows = 8
	const minRounds = 1500
	const ctrlCycles = 200
	seqs := [flows]uint32{}
	for i := range seqs {
		seqs[i] = 1
	}
	// Traffic keeps flowing until the controller has finished its cycles, so
	// the two sides genuinely overlap no matter how the scheduler interleaves
	// the goroutines.
	var ctrlDone atomic.Bool
	n := 0
	var tick func()
	tick = func() {
		i := n % flows
		sp, dp := uint16(100+i), uint16(200+i)
		egress(v, dataPkt(host.Addr, peer, sp, dp, seqs[i], 100))
		seqs[i] += 100
		ingress(v, ackPkt(peer, host.Addr, dp, sp, seqs[i], 65535))
		if n++; n < minRounds || !ctrlDone.Load() {
			s.ScheduleFunc(100, tick)
		}
	}
	s.ScheduleFunc(0, tick)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ctrlDone.Store(true)
		var snap []byte
		for i := 0; i < ctrlCycles; i++ {
			switch i % 5 {
			case 0:
				snap = v.SaveSnapshot()
			case 1, 2:
				if snap != nil {
					if err := v.RestoreSnapshot(snap); err != nil {
						t.Errorf("restore of a saved snapshot failed: %v", err)
						return
					}
				}
			case 3:
				// Corrupt restore: must fail open (in-place table reset)
				// without disturbing concurrent traffic.
				if err := v.RestoreSnapshot([]byte("garbage")); err == nil {
					t.Error("corrupt restore did not error")
					return
				}
			case 4:
				v.Detach()
				v.Reattach()
			}
		}
	}()
	s.RunAll()
	wg.Wait()

	if !v.Attached() {
		// The flipper may have left the switch detached mid-cycle only if
		// stopped between the calls; Reattach is unconditional, so re-enable
		// for the consistency check.
		v.Reattach()
	}
	if gauge, tbl := v.Metrics.FlowTableSize.Value(), int64(v.Table.Len()); gauge != tbl {
		t.Fatalf("flow_table_size gauge %d != table len %d after concurrent restarts", gauge, tbl)
	}
	st := v.Stats()
	if st.SnapshotSaves == 0 || st.SnapshotRestores == 0 || st.SnapshotCorrupt == 0 {
		t.Fatalf("controller did not exercise all paths: %+v", st)
	}
}

// TestFinRevSetUnderItsOwnLock is the regression for a FIN arriving from the
// network: the receiver module marks the reverse record's finRev, and
// SaveSnapshot reads that field under the reverse record's own mutex on a
// control-plane goroutine — so it must be written under that mutex, not under
// the lock of the record the FIN was counted on. Run with -race.
func TestFinRevSetUnderItsOwnLock(t *testing.T) {
	v, host, s := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	fin := func(sp, dp uint16, ack uint32) *packet.Packet {
		return packet.Build(peer, host.Addr, packet.NotECT, packet.TCPFields{
			SrcPort: dp, DstPort: sp, Seq: 1, Ack: ack,
			Flags: packet.FlagACK | packet.FlagFIN, Window: 65535}, 0)
	}

	const rounds = 2000
	var stop atomic.Bool
	n := 0
	var tick func()
	tick = func() {
		sp, dp := uint16(100+n%8), uint16(200+n%8)
		egress(v, dataPkt(host.Addr, peer, sp, dp, 1, 100))
		ingress(v, fin(sp, dp, 101))
		if n++; n < rounds {
			s.ScheduleFunc(100, tick)
		} else {
			stop.Store(true)
		}
	}
	s.ScheduleFunc(0, tick)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			v.SaveSnapshot()
		}
	}()
	s.RunAll()
	wg.Wait()

	for i := 0; i < 8; i++ {
		f := v.Table.Get(FlowKey{Src: host.Addr, Dst: peer, SPort: uint16(100 + i), DPort: uint16(200 + i)})
		if f == nil {
			t.Fatalf("flow %d not tracked", i)
		}
		f.mu.Lock()
		finRev := f.finRev
		f.mu.Unlock()
		if !finRev {
			t.Fatalf("flow %d: the peer's FIN did not reach the data direction's record", i)
		}
	}
}
