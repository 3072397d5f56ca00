package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The profile fold: a CPU profile (gzipped pprof protobuf, as
// runtime/pprof writes it) is decoded just far enough to charge every
// sample to one layer. `go tool pprof -top` prints the same flat
// figures per function; folding them here keeps the run self-contained
// and the buckets fixed.

// layerBuckets lists the layers in reporting order.
var layerBuckets = []string{
	"sim", "simnet", "roce", "rnic", "tofino", "p4ce", "fabric", "mu",
	"core", "observers", "facade", "runtime", "bench",
}

// layerOfPackage maps a Go package path to its layer. The second
// result is false for packages outside the repository and the runtime
// (the rest of the standard library), whose time belongs to whichever
// layer called them.
func layerOfPackage(pkg string) (string, bool) {
	switch pkg {
	case "p4ce":
		return "facade", true
	case "main", "p4ce/benchmark":
		return "bench", true
	case "p4ce/internal/core", "p4ce/internal/cm":
		return "core", true
	case "p4ce/internal/metrics", "p4ce/internal/otrace", "p4ce/internal/telemetry", "p4ce/internal/trace":
		return "observers", true
	}
	if rest, ok := strings.CutPrefix(pkg, "p4ce/internal/"); ok {
		for _, layer := range layerBuckets {
			if rest == layer {
				return rest, true
			}
		}
		return "", false // a package added later: charge its caller
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/cpu" {
		return "runtime", true
	}
	return "", false
}

// packageOf extracts the package path from a symbol such as
// "p4ce/internal/sim.(*sched).step" or "hash/crc32.ieeeCLMUL".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold package paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfStack charges one sample. The leaf function's package decides;
// a standard-library leaf (crc32, container/heap, encoding/binary …) is
// charged to the nearest caller that belongs to a layer, and a stack
// with no such caller (GC workers, the profiler itself) to the runtime.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if layer, ok := layerOfPackage(packageOf(fn)); ok {
			return layer
		}
	}
	return "runtime"
}

// foldProfile returns each layer's share of the profile's CPU time, in
// percent. The shares sum to 100.
func foldProfile(gz []byte) (metrics, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := make(map[string]int64)
	var total int64
	var stack []string
	for _, s := range prof.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range prof.locFuncs[loc] {
				stack = append(stack, prof.strings[prof.funcName[fid]])
			}
		}
		byLayer[layerOfStack(stack)] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	out := make(metrics, len(layerBuckets))
	for _, layer := range layerBuckets {
		out[layer+".cpu_pct"] = 100 * float64(byLayer[layer]) / float64(total)
	}
	return out, nil
}

// profile holds the parts of a pprof Profile message the fold needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf of inlining first
	funcName map[uint64]int64    // function id → string-table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	u64  uint64 // varint value (wire type 0)
	data []byte // length-delimited payload (wire type 2)
}

// walkProto calls fn for every field of msg.
func walkProto(msg []byte, fn func(protoField) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			f.u64, msg = v, msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			f.data, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field in either encoding.
func repeatedVarints(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u64), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile reads Profile.sample (2), .location (4), .function (5)
// and .string_table (6); see github.com/google/pprof/proto/profile.proto.
func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walkProto(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			var s profSample
			var values []uint64
			err := walkProto(f.data, func(sf protoField) (err error) {
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarints(sf, s.locs)
				case 2:
					values, err = repeatedVarints(sf, values)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var funcs []uint64
			err := walkProto(f.data, func(lf protoField) error {
				switch lf.num {
				case 1:
					id = lf.u64
				case 4:
					return walkProto(lf.data, func(ln protoField) error {
						if ln.num == 1 {
							funcs = append(funcs, ln.u64)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // Function: id = 1, name = 2
			var id uint64
			var name int64
			err := walkProto(f.data, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.u64
				case 2:
					name = int64(ff.u64)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}
