package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack (leaf first, inlined frames expanded) and CPU
// nanoseconds.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, leaf first
	cpuNs int64
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Only the fields attribution reads are decoded.
func parseProfile(gz []byte) (*cpuProfile, error) {
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
		strs      []string
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
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
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{cpuNs: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				name := "?"
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				ps.stack = append(ps.stack, name)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may be packed (one
// length-delimited run) or unpacked (one varint per field).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Runtime frames that mark a sample as garbage collection or as
// allocation. The frame nearest the leaf that matches decides, so a GC
// assist inside mallocgc counts as GC.
var (
	gcFramePrefixes = []string{
		"runtime.gc", "runtime.scan", "runtime.mark", "runtime.greyobject",
		"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*sweepLocked)",
		"runtime.(*mspan).sweep", "runtime.wbBuf", "runtime.bulkBarrier",
	}
	mallocFramePrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.nextFreeFast", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap).alloc",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a Go symbol such as
// "dcqcn/internal/eventq.(*Queue).Push".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a sample's stack to the module its leaf frame belongs
// to: "eventq" for dcqcn/internal/eventq and its subpackages, "dcqcn"
// for the facade, "perfbench" for this benchmark (package main),
// "runtime_gc" and "runtime_malloc" for runtime frames under a collector
// or allocator frame, "runtime_other" for the rest of the runtime, and
// the import path for any other standard package.
func moduleOf(stack []string) string {
	if len(stack) == 0 {
		return "unknown"
	}
	pkg := packageOf(stack[0])
	switch {
	case pkg == "runtime" || !strings.Contains(stack[0], "."): // assembly stubs such as gcWriteBarrier2 carry no package
		for _, fn := range stack {
			if hasAnyPrefix(fn, gcFramePrefixes) {
				return "runtime_gc"
			}
			if hasAnyPrefix(fn, mallocFramePrefixes) {
				return "runtime_malloc"
			}
		}
		return "runtime_other"
	case strings.HasPrefix(pkg, "dcqcn/internal/"):
		mod := strings.TrimPrefix(pkg, "dcqcn/internal/")
		if i := strings.Index(mod, "/"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case pkg == "main":
		return "perfbench"
	}
	return pkg
}

// selfNs attributes every sample's CPU nanoseconds to its leaf module.
func selfNs(p *cpuProfile) map[string]int64 {
	ns := map[string]int64{}
	for _, s := range p.samples {
		ns[moduleOf(s.stack)] += s.cpuNs
	}
	return ns
}
