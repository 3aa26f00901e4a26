package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profSample is one CPU profile sample: its CPU time and its stack as
// function names, innermost (leaf, inlined-most) first.
type profSample struct {
	ns     int64
	frames []string
	run    string // the "run" pprof label
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes.
// It reads only what attribution needs: sample stacks, values and labels,
// locations with their (inlined) lines, function names and strings.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // key, str string-table indexes
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each sample type's name
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = pbRepeated(s.locs, v, b)
				case 2:
					s.values, err = pbRepeated(s.values, v, b)
				case 3:
					var kv [2]uint64
					err = pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
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
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; take the cpu one.
	vi := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("profile: sample with %d values, want > %d", len(s.values), vi)
		}
		ps := profSample{ns: int64(s.values[vi])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.frames = append(ps.frames, str(funcNames[f]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "run" {
				ps.run = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbFields walks a protobuf message, calling fn with each field's number
// and its varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field's values, packed (data) or not.
func pbRepeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// attribution is a profile's CPU time split by layer.
type attribution struct {
	total        int64
	layers       map[string]int64 // keys from layers
	modules      map[string]int64 // every compcache/internal module, plus bench, workload and runtime
	runs         map[string]int64 // by "run" label; unlabelled samples under ""
	compressNs   int64            // compress layer time inside a Compress call
	decompressNs int64            // compress layer time inside a Decompress call
}

// attribute charges each sample to the innermost compcache/internal frame
// on its stack, so standard-library callees (crc32, memmove, math/rand)
// count toward their caller. The benchmark's own frames count as bench,
// except the fleet application (app*), which counts as workload; samples
// with neither count as runtime.
func attribute(samples []profSample) attribution {
	a := attribution{
		layers:  make(map[string]int64),
		modules: make(map[string]int64),
		runs:    make(map[string]int64),
	}
	named := make(map[string]bool, len(layers))
	for _, l := range layers {
		named[l] = true
	}
	for _, s := range samples {
		mod, at := "runtime", -1
		for i, fn := range s.frames {
			if m := moduleOf(fn); m != "" {
				mod, at = m, i
				break
			}
		}
		layer := mod
		if !named[layer] {
			layer = "other"
		}
		a.total += s.ns
		a.layers[layer] += s.ns
		a.modules[mod] += s.ns
		a.runs[s.run] += s.ns
		if mod == "compress" {
			switch codecDirection(s.frames[at:]) {
			case "compress":
				a.compressNs += s.ns
			case "decompress":
				a.decompressNs += s.ns
			}
		}
	}
	return a
}

// check confirms that the layers account for every profiled nanosecond.
func (a attribution) check() error {
	var sum int64
	for _, l := range layers {
		sum += a.layers[l]
	}
	if sum != a.total || a.total <= 0 {
		return fmt.Errorf("profile: layers account for %d of %d ns", sum, a.total)
	}
	return nil
}

// moduleOf names the layer a function belongs to, or "" for the standard
// library and the runtime.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "compcache/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if rest, ok := strings.CutPrefix(fn, "main."); ok {
		if strings.HasPrefix(rest, "app") {
			return "workload"
		}
		return "bench"
	}
	return ""
}

// codecDirection finds the nearest Compress or Decompress call among the
// compress-module frames, innermost first.
func codecDirection(frames []string) string {
	for _, fn := range frames {
		if moduleOf(fn) != "compress" {
			return ""
		}
		switch {
		case strings.Contains(fn, "Decompress"):
			return "decompress"
		case strings.Contains(fn, "Compress"):
			return "compress"
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
