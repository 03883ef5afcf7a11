package core

import (
	"math"
	"slices"
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// fuzzVSwitch is the restore victim: metrics on, default config. Rebuilt per
// iteration so fuzz inputs can't interfere through shared table state.
func fuzzVSwitch() *VSwitch {
	s := sim.New(1)
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond,
		netsim.HandlerFunc(func(*packet.Packet) {}))
	return Attach(s, host, DefaultConfig())
}

// FuzzSnapshotRoundTrip restores an arbitrary single-flow record and checks
// that restore never panics, whatever the field values (NaN floats smuggled in
// via bit patterns included), and leaves the shared sender defaults alone;
// and that the restored, sanitized flow then round-trips losslessly: its
// checkpoint restored onto a fresh vSwitch checkpoints the same again.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a000002), uint16(100), uint16(200),
		uint8(7), byte(0x1f), int64(1000), int64(2000),
		uint64(0x40c5190000000000), // 10800.0
		uint64(0x3fe0000000000000), // 0.5
		uint32(9000), uint32(4500), "dctcp")
	f.Add(uint32(1), uint32(2), uint16(3), uint16(4),
		uint8(14), byte(0xff), int64(-5), int64(-10),
		uint64(0x7ff8000000000001), // NaN
		uint64(0xfff0000000000000), // -Inf
		uint32(0xffffffff), uint32(0), "reno")
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0),
		uint8(0), byte(0), int64(0), int64(0),
		uint64(0), uint64(0), uint32(0), uint32(0), "")
	f.Fuzz(func(t *testing.T, src, dst uint32, sp, dp uint16,
		wscale uint8, flags byte, sndUna, sndNxt int64,
		cwndBits, alphaBits uint64, total, marked uint32, vcc string) {
		r := flowRecord{
			Key:           FlowKey{Src: packet.Addr(src), Dst: packet.Addr(dst), SPort: sp, DPort: dp},
			Flags:         flags,
			PeerWScale:    wscale,
			MSS:           total % 100_000,
			ISS:           marked,
			SndUna:        sndUna,
			SndNxt:        sndNxt,
			CwndBytes:     math.Float64frombits(cwndBits),
			SsthreshBytes: math.Float64frombits(alphaBits),
			Alpha:         math.Float64frombits(alphaBits),
			LastTotal:     total,
			LastMarked:    marked,
			TotalBytes:    total,
			MarkedBytes:   marked,
			VTimeouts:     sndUna,
			LossEvents:    sndNxt,
			Beta:          math.Float64frombits(cwndBits),
			RwndClamp:     sndNxt,
			PolVCC:        vcc,
		}
		v := fuzzVSwitch()
		v.RestoreSnapshot([]flowRecord{r})
		checkSenderDefaults(t, v)
		saved := v.SaveSnapshot()
		if len(saved) != 1 {
			t.Fatalf("one record restored as %d flows", len(saved))
		}
		w := fuzzVSwitch()
		w.RestoreSnapshot(saved)
		if again := w.SaveSnapshot(); !slices.Equal(again, saved) {
			t.Fatalf("restored flow checkpoints differently:\n got %+v\nwant %+v", again, saved)
		}
	})
}
