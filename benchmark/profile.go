package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A small reader for the pprof profile.proto format, enough to fold a CPU
// profile's flat samples by the package of the leaf function. (The module
// has no dependencies, so github.com/google/pprof/profile is not an option.)
//
// Wire layout used here — Profile: 2 sample, 4 location, 5 function,
// 6 string_table. Sample: 1 location_id (leaf first), 2 value. Location:
// 1 id, 4 line (innermost inlined callee first). Line: 1 function_id.
// Function: 1 id, 2 name (string-table index).

// field is one decoded protobuf field: a varint value or a length-delimited
// payload.
type field struct {
	num   int
	val   uint64
	bytes []byte
}

// fields splits a protobuf message into its top-level fields.
func fields(msg []byte) ([]field, error) {
	var out []field
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field tag")
		}
		msg = msg[n:]
		f := field{num: int(tag >> 3)}
		switch tag & 7 {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			f.val, msg = v, msg[n:]
		case 1: // 64-bit
			if len(msg) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			f.val, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.bytes, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // 32-bit
			if len(msg) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			f.val, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", tag&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints decodes a repeated integer field, packed or not.
func varints(f field, into []uint64) []uint64 {
	if f.bytes == nil {
		return append(into, f.val)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		into, b = append(into, v), b[n:]
	}
	return into
}

// flatByPackage parses a gzipped CPU profile and returns, for each Go
// package, the share of samples (in percent) whose leaf function belongs to
// it. A run too short to be sampled gives an empty map.
func flatByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → name string index
	locFunc := map[uint64]uint64{}  // location id → leaf function id
	type sample struct{ leaf, count uint64 }
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.bytes))
		case 5:
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.val
				case 2:
					name = s.val
				}
			}
			funcName[id] = name
		case 4:
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, s := range sub {
				switch {
				case s.num == 1:
					id = s.val
				case s.num == 4 && !haveLine:
					haveLine = true
					line, err := fields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fn = l.val
						}
					}
				}
			}
			locFunc[id] = fn
		case 2:
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					locs = varints(s, locs)
				case 2:
					vals = varints(s, vals)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: vals[0]})
			}
		}
	}
	var total uint64
	byPkg := map[string]uint64{}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		byPkg[packageOf(name)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(byPkg))
	for pkg, n := range byPkg {
		out[pkg] = float64(n) * 100 / float64(total) // a sample exists, so total > 0
	}
	return out, nil
}

// packageOf extracts the import path from a symbol such as
// "repro/internal/des.(*Sim).RunUntil" or "runtime.mallocgc".
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}

// hostShares folds package shares into <layer>.host_pct: one entry per
// repository layer, plus runtime.host_pct for the Go runtime (scheduler,
// channels, malloc, GC). What is left — the benchmark's own drivers, fmt,
// sync — is not reported, so the shares sum to less than 100.
func hostShares(byPkg map[string]float64) map[string]float64 {
	out := map[string]float64{"runtime.host_pct": 0}
	for _, l := range profiledLayers {
		out[l+".host_pct"] = 0
	}
	for pkg, share := range byPkg {
		switch {
		case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
			out["runtime.host_pct"] += share
		case strings.HasPrefix(pkg, "repro/internal/"):
			key := strings.TrimPrefix(pkg, "repro/internal/") + ".host_pct"
			if _, listed := out[key]; listed {
				out[key] += share
			}
		}
	}
	return out
}

var profiledLayers = []string{
	"des", "ibsim", "memreg", "rpcrdma", "xdr", "oncrpc", "nfs3", "vfs", "cpu", "core", "telemetry", "stats",
}
