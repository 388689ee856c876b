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

// Layer attribution of CPU profiles. A runtime/pprof CPU profile is a
// gzipped profile.proto message; the few fields the fold needs are read
// here with a minimal protobuf decoder, so the bench needs nothing but
// the standard library.

// layers lists the attribution targets in report order.
var layers = []string{
	"workloads", "reference", "cpu", "cache", "memp", "bia",
	"trace_record", "trace_codec", "harness", "sinks", "fleet",
	"runtime_gc", "other",
}

// pkgLayer maps the repository's packages onto layers; layerOfFrame
// refines harness and trace by function.
var pkgLayer = map[string]string{
	"workloads":   "workloads",
	"ctcrypto":    "workloads",
	"ct":          "workloads",
	"attacker":    "workloads",
	"cpu":         "cpu",
	"cache":       "cache",
	"memp":        "memp",
	"bia":         "bia",
	"trace":       "trace_codec",
	"harness":     "harness",
	"faultinject": "harness",
	"retry":       "harness",
	"resultcache": "sinks",
	"obs":         "sinks",
	"fleet":       "fleet",
}

// splitFunc splits a profile function name such as
// "ctbia/internal/cache.(*Cache).findIn" into its package path and the
// rest. Type arguments may hold slashes, so the package ends at the
// first dot after the last slash that precedes any '['.
func splitFunc(name string) (pkg, rest string) {
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return name, ""
	}
	dot += slash + 1
	return name[:dot], name[dot+1:]
}

// layerOfFrame returns the layer of one repository frame, or "" for a
// frame outside the ctbia/ module tree.
func layerOfFrame(name string) string {
	pkg, rest := splitFunc(name)
	short, ok := strings.CutPrefix(pkg, "ctbia/internal/")
	if !ok {
		return ""
	}
	switch {
	case short == "trace" && (strings.HasPrefix(rest, "(*Recorder).") || rest == "NewRecorder"):
		return "trace_record"
	case short == "harness" && (strings.HasPrefix(rest, "(*Manifest).") || strings.HasSuffix(rest, "Manifest")):
		return "sinks"
	case short == "harness" && (strings.HasPrefix(rest, "lookupTrace") || strings.HasPrefix(rest, "persistTrace")):
		// The trace store's file reads and writes belong with the codec.
		return "trace_codec"
	}
	if l, ok := pkgLayer[short]; ok {
		return l
	}
	return "other"
}

// isReference reports whether a frame is a workload's or kernel's
// pure-Go Reference function (or a closure inside one).
func isReference(name string) bool {
	pkg, rest := splitFunc(name)
	if pkg != "ctbia/internal/workloads" && pkg != "ctbia/internal/ctcrypto" {
		return false
	}
	for _, part := range strings.Split(rest, ".") {
		if part == "Reference" {
			return true
		}
	}
	return false
}

// isGC reports whether a frame is the collector or the allocator.
func isGC(name string) bool {
	switch name {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc", "runtime.GC":
		return true
	}
	return strings.HasPrefix(name, "runtime.mallocgc")
}

// layerOf attributes one sample, given its stack innermost frame first:
//
//  1. a stack holding a GC worker or the allocator goes to runtime_gc;
//  2. a stack under a Reference function goes to reference;
//  3. otherwise the innermost frame in a ctbia/ package decides, so
//     standard-library frames are charged to their repository caller;
//  4. a stack with no repository frame but net/http frames is the
//     fleet's HTTP serving and transport (no other workload serves or
//     dials); anything else is other.
func layerOf(stack []string) string {
	for _, f := range stack {
		if isGC(f) {
			return "runtime_gc"
		}
	}
	for _, f := range stack {
		if isReference(f) {
			return "reference"
		}
	}
	for _, f := range stack {
		if l := layerOfFrame(f); l != "" {
			return l
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "net/http.") {
			return "fleet"
		}
	}
	return "other"
}

// layerProfile is a CPU profile folded into layers.
type layerProfile struct {
	Samples int64            // profile samples
	CPU     map[string]int64 // CPU nanoseconds per layer
}

func (lp *layerProfile) add(o layerProfile) {
	if lp.CPU == nil {
		lp.CPU = make(map[string]int64)
	}
	lp.Samples += o.Samples
	for l, ns := range o.CPU {
		lp.CPU[l] += ns
	}
}

// foldProfile parses a gzipped CPU profile and attributes every sample
// to a layer.
func foldProfile(gz []byte) (layerProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return layerProfile{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return layerProfile{}, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return layerProfile{}, err
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds] per sample.
	if p.sampleTypes != 2 {
		return layerProfile{}, fmt.Errorf("profile: %d sample types, want 2 (samples, cpu)", p.sampleTypes)
	}
	out := layerProfile{CPU: make(map[string]int64)}
	var stack []string
	for _, s := range p.samples {
		if len(s.values) != 2 {
			return layerProfile{}, errors.New("profile: sample value count mismatch")
		}
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		out.Samples += s.values[0]
		out.CPU[layerOf(stack)] += s.values[1]
	}
	return out, nil
}

// profile holds the decoded subset of profile.proto.
type profile struct {
	sampleTypes int
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of profile.proto the fold uses:
// Profile{sample_type=1, sample=2, location=4, function=5,
// string_table=6}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1} and Function{id=1,
// name=2}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, data)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, wire, v, data); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendUints appends a repeated integer field in either encoding: one
// varint, or a packed run of varints.
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its payload bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
