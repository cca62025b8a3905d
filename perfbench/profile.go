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

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and adds each sample's CPU seconds to its layer in fold. A sample is
// charged to the innermost frame of a hypatia package, so standard-library
// and runtime work (math.Sin, mallocgc) counts against the library code that
// called it; samples with no such frame (GC workers, the scheduler) count as
// "runtime".
//
// Only the profile.proto fields the fold needs are decoded: samples
// (location ids and values), locations (their line entries' function ids),
// functions (name string index) and the string table.
func foldProfile(gz []byte, fold map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sampleRec
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sampleRec
			err := eachField(b, func(f int, v uint64, b []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.values, err = appendPacked(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// The CPU profile's last sample value is CPU nanoseconds.
		ns := s.values[len(s.values)-1]
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return errors.New("profile: function name out of range")
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		fold[layer] += float64(ns) / 1e9
	}
	return nil
}

// layerOf maps a function's full name to its layer, or "" for a function
// outside the library.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "hypatia" {
		return "core" // the facade
	}
	rest, ok := strings.CutPrefix(pkg, "hypatia/internal/")
	if !ok {
		return ""
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "orbit", "constellation", "geom", "groundstation", "tle":
		return "geometry"
	case "routing", "graph":
		return "forwarding"
	case "sim":
		return "sim"
	case "transport":
		return "transport"
	case "analysis", "experiments":
		return "analysis"
	}
	return "core"
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			if size == 8 {
				v = binary.LittleEndian.Uint64(msg)
			} else {
				v = uint64(binary.LittleEndian.Uint32(msg))
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values: one value, or a
// packed run of them.
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
