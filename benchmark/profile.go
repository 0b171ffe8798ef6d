package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one CPU-profile sample: its call stack as function names,
// innermost first with inlined calls expanded, and the CPU time it stands
// for.
type profSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes the gzipped pprof protobuf runtime/pprof writes,
// keeping only what layer attribution needs: each sample's stack and CPU
// nanoseconds. It is a minimal decoder for the fields of profile.proto it
// reads (sample_type, sample, location, function, string_table).
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id → string index
		strs        []string
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbUints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU time is the value whose type is "cpu"; runtime/pprof puts it
	// last, after the sample count.
	valueIdx := len(sampleTypes) - 1
	for i, ti := range sampleTypes {
		if str(ti) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, profSample{stack: stack, nanos: s.values[valueIdx]})
	}
	return out, nil
}

// pbFields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none of them.
func pbFields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errors.New("truncated fixed field")
			}
			b = b[width:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints delivers a repeated integer field's values, whether it was
// encoded as one varint (v, with packed nil) or packed.
func pbUints(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint, returning its byte length (0 when
// b is truncated or the varint overflows).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers names the benchmark's CPU attribution buckets: the public API
// (the byzcons package), every internal module of the program, the
// benchmark's own code and the Go runtime.
var layers = []string{
	"api", "adversary", "bitio", "bitset", "bsb", "chaos", "consensus",
	"diag", "engine", "experiments", "fitzihirt", "gf", "hashu", "metrics",
	"mvb", "naive", "node", "obs", "rs", "sim", "transport", "wire",
	"bench", "runtime",
}

// layerOf maps a function name from a profile to its layer: "api" for the
// byzcons package, the module name for byzcons/internal/<module>, "bench"
// for this command, and "" for anything else.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "byzcons/internal/"):
		rest := fn[len("byzcons/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "byzcons."):
		return "api"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// isSyscallLeaf reports whether a sample's innermost frame is the kernel
// boundary: a syscall stub or the runtime's futex wrapper.
func isSyscallLeaf(fn string) bool {
	return strings.HasPrefix(fn, "syscall.") ||
		strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall.") ||
		fn == "runtime.futex"
}

// attribution is a CPU profile split by layer.
type attribution struct {
	byLayer map[string]int64 // CPU nanoseconds charged to each layer
	total   int64            // CPU nanoseconds in the profile
	syscall int64            // CPU nanoseconds of samples ending in a syscall
}

// attribute charges each sample to the innermost frame that belongs to the
// program or the benchmark, so allocation, locking and syscall time lands
// on the layer that caused it; samples with no such frame (GC workers,
// scheduler, netpoller) go to "runtime". Every sample lands in exactly one
// layer, so the layers sum to the total.
func attribute(samples []profSample) attribution {
	a := attribution{byLayer: make(map[string]int64)}
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		a.byLayer[layer] += s.nanos
		a.total += s.nanos
		if len(s.stack) > 0 && isSyscallLeaf(s.stack[0]) {
			a.syscall += s.nanos
		}
	}
	return a
}
