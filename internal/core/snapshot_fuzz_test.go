package core

import (
	"bytes"
	"math"
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

// FuzzSnapshotRoundTrip encodes an arbitrary single-flow record and checks
// encode→decode is lossless and restore never panics — whatever the field
// values, including NaN floats smuggled in via bit patterns.
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
			Fixed: recordFixed{
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
			},
			PolVCC:  vcc,
			VCCName: vcc,
		}
		enc := encodeSnapshot(7, []flowRecord{r})
		capturedAt, recs, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if capturedAt != 7 || len(recs) != 1 {
			t.Fatalf("capturedAt=%d records=%d", capturedAt, len(recs))
		}
		// Bit-exact round trip: re-encoding the decoded record must reproduce
		// the original bytes. (Struct equality would lie here — NaN != NaN —
		// and byte equality also covers the >255-byte string truncation.)
		if !bytes.Equal(encodeSnapshot(capturedAt, recs), enc) {
			t.Fatalf("re-encode of decoded record differs from original:\n%+v", recs[0])
		}
		// Restoring arbitrary (but well-framed) state must never panic; the
		// sanitize layer owns making it safe.
		v := fuzzVSwitch()
		if err := v.RestoreSnapshot(enc); err != nil {
			t.Fatalf("well-formed snapshot rejected: %v", err)
		}
		checkSenderDefaults(t, v)
	})
}

// FuzzSnapshotDecode feeds raw bytes to the decoder and the restore path.
// The invariants: never panic, never accept a CRC-invalid buffer, and fail
// open (empty table + counter) on every rejected input.
func FuzzSnapshotDecode(f *testing.F) {
	// Valid snapshots (empty and 1-flow) as seeds so the fuzzer starts near
	// the accepting region; mutations of these exercise every reject branch.
	f.Add(encodeSnapshot(0, nil))
	f.Add(encodeSnapshot(42, []flowRecord{{
		Fixed: recordFixed{
			Key: FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SPort: 1, DPort: 2},
			MSS: 1400, Flags: recISSValid, SndUna: 10, SndNxt: 20,
			CwndBytes: 14000, SsthreshBytes: 1 << 30, Alpha: 0.5, Beta: 1,
		},
		PolVCC: "dctcp", VCCName: "dctcp",
	}}))
	f.Add([]byte{})
	f.Add([]byte("ACDCSNAP"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, err := decodeSnapshot(data)
		if err == nil {
			// Accepted: framing must have been internally consistent.
			for _, r := range recs {
				_ = r
			}
		}
		v := fuzzVSwitch()
		rerr := v.RestoreSnapshot(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("decode err=%v but restore err=%v", err, rerr)
		}
		if rerr != nil {
			if n := v.Table.Len(); n != 0 {
				t.Fatalf("rejected snapshot left %d flows (must fail open)", n)
			}
			if v.Stats().SnapshotCorrupt != 1 {
				t.Fatalf("SnapshotCorrupt = %d after rejection", v.Stats().SnapshotCorrupt)
			}
		} else if v.Stats().SnapshotRestores != 1 {
			t.Fatalf("SnapshotRestores = %d after accept", v.Stats().SnapshotRestores)
		}
		checkSenderDefaults(t, v)
	})
}
