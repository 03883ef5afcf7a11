package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Per-layer CPU attribution from sampled stacks. An event callback costs
// about 250 ns, so a timed span around each call into a layer would cost as
// much as the call. The traced pass instead runs under the runtime's CPU
// profiler and this file decodes the gzipped profile.proto it produces
// (standard library only) and charges every sample to the innermost frame
// that belongs to a layer.

// codeLayers are the packages under acdc/internal that are measured layers.
// shareLayers adds harness, everything else of ours (workload, topo, trace,
// stats, this benchmark), and runtime, a stack with no frame of ours at all
// (GC workers, the scheduler).
var (
	codeLayers  = []string{"sim", "packet", "netsim", "tcpstack", "cc", "core", "metrics"}
	shareLayers = append(codeLayers[:len(codeLayers):len(codeLayers)], "harness", "runtime")
)

const (
	internalPrefix = "acdc/internal/"
	calKernelFunc  = "main.calKernel"
)

// layerOf maps a function name to its layer, or "" for a frame that is not
// ours (standard library, runtime), which is charged to its caller.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range codeLayers {
			if pkg == l {
				return l
			}
		}
		return "harness"
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "acdc/") {
		return "harness"
	}
	return ""
}

// attribution is the outcome of decoding one profile.
type attribution struct {
	shares  map[string]float64 // by layer; sums to 1
	samples int64              // samples attributed (calibration excluded)
	cpuNS   int64              // their CPU time
	calNS   int64              // CPU time inside the calibration kernel, left out
}

// attribute decodes a gzipped profile.proto and splits its samples by layer.
// Samples whose leaf is the calibration kernel are the instrument's own cost
// and are left out of the shares.
func attribute(gz []byte) (*attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	a := &attribution{shares: map[string]float64{}}
	byLayer := map[string]int64{}
	for _, s := range p.samples {
		layer, cal := p.classify(s.locs)
		ns := s.values[len(s.values)-1] // cpu/nanoseconds is the last sample type
		if cal {
			a.calNS += ns
			continue
		}
		byLayer[layer] += ns
		a.cpuNS += ns
		a.samples += s.values[0]
	}
	if a.cpuNS == 0 {
		return nil, errors.New("profile: no samples")
	}
	for _, l := range shareLayers {
		a.shares[l] = float64(byLayer[l]) / float64(a.cpuNS)
	}
	return a, nil
}

// classify walks a stack leaf-first and returns the layer of the innermost
// frame of ours. A location holds one line per inlined function, innermost
// first, so inlined callees are seen before the function they were inlined
// into.
func (p *profile) classify(locs []uint64) (layer string, calibration bool) {
	for _, id := range locs {
		for _, fnID := range p.locations[id] {
			name := p.strings[p.functions[fnID]]
			if name == calKernelFunc {
				return "", true
			}
			if l := layerOf(name); l != "" {
				return l, false
			}
		}
	}
	return "runtime", false
}

// profile is the part of perftools.profiles.Profile the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name index in strings
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers from profile.proto.
const (
	profSample, profLocation, profFunction, profStringTable = 2, 4, 5, 6
	sampleLocationID, sampleValue                           = 1, 2
	locationID, locationLine                                = 1, 4
	lineFunctionID                                          = 1
	functionID, functionName                                = 1, 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, v, data)
				case sampleValue:
					for _, u := range appendVarints(nil, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("profile: sample without values")
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, which arrives either as
// one varint (v) or packed into a length-delimited run (data).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated message")

// eachField calls fn for every field of a protobuf message: v holds a varint
// or fixed value, data a length-delimited one (nil otherwise).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
