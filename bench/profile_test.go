package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"acdc/internal/packet"
)

// TestAttributeChargesTheInnermostLayer profiles a loop that spends its time
// inside internal/packet, called from this package: the samples must land on
// packet, not on the harness frame around them.
func TestAttributeChargesTheInnermostLayer(t *testing.T) {
	if raceEnabled {
		t.Skip("no usable CPU profile under the race detector")
	}
	buf := make([]byte, 64<<10)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	var sink uint16
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sink += packet.Checksum(buf)
	}
	pprof.StopCPUProfile()
	_ = sink
	a, err := attribute(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.shares["packet"] < 0.9 {
		t.Errorf("packet share = %.2f of %d samples, want >= 0.9; shares %v", a.shares["packet"], a.samples, a.shares)
	}
	var sum float64
	for _, s := range a.shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// protobuf encoding, just enough to write a profile by hand.
func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3|2), uint64(len(data)))
	return append(b, data...)
}

// TestAttributeResolvesInlinedFrames builds a profile by hand. Its first
// location holds two lines, a packet function inlined into a core function:
// line[0] is the innermost, so the sample is packet's. The other samples
// check the fallbacks: standard-library leaves go to the calling layer,
// stacks with no frame of ours to runtime, the calibration kernel is left out.
func TestAttributeResolvesInlinedFrames(t *testing.T) {
	names := []string{"", "acdc/internal/packet.TCP.SetWindow", "acdc/internal/core.(*VSwitch).ingressRun",
		"sync/atomic.(*Int64).Add", "acdc/internal/metrics.(*Counter).Add", "runtime.gcBgMarkWorker",
		"main.calKernel", "main.runPass", "acdc/internal/workload.(*Messenger).checkComplete"}
	var p []byte
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 1)) // sample_type: one value per sample
	sample := func(locs ...uint64) {
		var packed []byte
		for _, l := range locs {
			packed = binary.AppendUvarint(packed, l)
		}
		p = pbBytes(p, profSample, pbVarint(pbBytes(nil, sampleLocationID, packed), sampleValue, 10))
	}
	sample(1)    // SetWindow inlined into ingressRun → packet
	sample(2, 3) // atomic add ← Counter.Add → metrics
	sample(4)    // GC worker → runtime
	sample(5, 6) // calibration kernel ← runPass → left out
	sample(7, 6) // workload ← runPass → harness
	location := func(id uint64, fns ...uint64) {
		loc := pbVarint(nil, locationID, id)
		for _, fn := range fns {
			loc = pbBytes(loc, locationLine, pbVarint(nil, lineFunctionID, fn))
		}
		p = pbBytes(p, profLocation, loc)
	}
	location(1, 1, 2) // line[0] = function 1 (packet), line[1] = function 2 (core)
	location(2, 3)
	location(3, 4)
	location(4, 5)
	location(5, 6)
	location(6, 7)
	location(7, 8)
	for i := 1; i < len(names); i++ {
		p = pbBytes(p, profFunction, pbVarint(pbVarint(nil, functionID, uint64(i)), functionName, uint64(i)))
	}
	for _, n := range names {
		p = pbBytes(p, profStringTable, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	a, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"packet": 0.25, "metrics": 0.25, "runtime": 0.25, "harness": 0.25}
	for _, l := range shareLayers {
		if a.shares[l] != want[l] {
			t.Errorf("%s share = %v, want %v", l, a.shares[l], want[l])
		}
	}
	if a.calNS != 10 || a.cpuNS != 40 {
		t.Errorf("calibration %d ns, attributed %d ns; want 10 and 40", a.calNS, a.cpuNS)
	}
	if _, err := attribute(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}
