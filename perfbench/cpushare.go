package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// shareModules are the cpu_share buckets: the simulator's packages, the Go
// runtime (GC, allocation, scheduling), the benchmark itself, and the rest
// of the standard library as "other".
var shareModules = []string{
	"core", "cache", "flashcard", "flashdisk", "disk", "sram", "hybrid", "array",
	"energy", "stats", "fault", "obs", "obsreport", "fleet", "trace", "workload",
	"index", "units", "device", "runtime", "perfbench", "other",
}

// cpuShare reads a runtime/pprof CPU profile and returns the share of
// samples whose leaf frame (the innermost inlined function) belongs to
// each bucket of shareModules, plus the sample count.
func cpuShare(path string) (map[string]float64, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := p.funcs[p.locLeaf[s.locs[0]]]
		counts[bucketOf(p.strings[fn])] += s.values[0]
		total += s.values[0]
	}
	share := make(map[string]float64, len(shareModules))
	for _, m := range shareModules {
		if total > 0 {
			share[m] = float64(counts[m]) / float64(total)
		} else {
			share[m] = 0
		}
	}
	return share, total, nil
}

// bucketOf maps a fully qualified function name to its cpu_share bucket.
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	case strings.HasPrefix(fn, "mobilestorage/internal/"):
		rest := strings.TrimPrefix(fn, "mobilestorage/internal/")
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range shareModules {
			if m == rest {
				return m
			}
		}
	}
	return "other"
}

// writeShareTable writes the cpu_share table, largest share first.
func writeShareTable(path string, share map[string]float64, samples int64) error {
	mods := append([]string(nil), shareModules...)
	sort.SliceStable(mods, func(i, j int) bool { return share[mods[i]] > share[mods[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "# CPU-profile samples bucketed by leaf package (%d samples)\n", samples)
	for _, m := range mods {
		fmt.Fprintf(&b, "%-10s %6.2f%%\n", m, 100*share[m])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// profile is the part of a pprof profile.proto that cpuShare needs.
type profile struct {
	samples []profSample
	locLeaf map[uint64]uint64 // location id → leaf function id
	funcs   map[uint64]int64  // function id → name string index
	strings []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes an uncompressed profile.proto message: samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, sub)
				case 2:
					for _, x := range appendVarints(nil, wire, v, sub) {
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
			var id, leaf uint64
			gotLeaf := false
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !gotLeaf: // first line is the innermost inlined frame
					gotLeaf = true
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLeaf[id] = leaf
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
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
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcs {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in sub.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}
