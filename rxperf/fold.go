package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// frame is one function activation of a profile stack.
type frame struct{ fn, file string }

// fold is a per-bucket total: nanoseconds for CPU, bytes for allocations.
type fold map[string]float64

// foldStack returns the bucket of one stack, given leaf first: the layer of
// the innermost simulator frame, so runtime frames (mallocgc, GC assist)
// count toward the layer that called them. Stacks with no simulator frame
// go to the harness (this benchmark's code, including the collections it
// forces between passes), runtime.gc, or the unattributed bucket. unknown
// receives the package of a simulator frame the layer table lacks.
func foldStack(frames []frame, unknown map[string]bool) string {
	for _, f := range frames {
		if l, ok := layerOf(f.fn, f.file); ok {
			if !knownLayer[l] {
				unknown[l] = true
				return bucketOther
			}
			return l
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "runtime/pprof.") {
			return bucketHarness
		}
	}
	for _, f := range frames {
		if gcRoots[f.fn] {
			return bucketGC
		}
	}
	return bucketOther
}

// gcRoots are the entry points of the collector's own goroutines and of
// GC work the profiler cannot place in a goroutine. The scheduler counts
// here too: the simulation runs on one goroutine that never blocks, so
// the only goroutines it parks and wakes are the collector's workers.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
	"runtime.schedule":       true,
}

var knownLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l.name] = true
	}
	return m
}()

// foldCPUProfile folds a gzipped pprof CPU profile into per-bucket CPU
// nanoseconds.
func foldCPUProfile(gz []byte, unknown map[string]bool) (fold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := fold{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("cpu profile: short sample")
		}
		var frames []frame
		for _, id := range s.locs {
			frames = append(frames, p.locs[id]...)
		}
		out[foldStack(frames, unknown)] += float64(s.values[vi])
	}
	return out, nil
}

// allocSnapshot is the cumulative sampled allocation profile, keyed by
// stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeAllocSnapshot reads the allocation profile as of the last completed
// garbage collection.
func takeAllocSnapshot() allocSnapshot {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			break
		}
	}
	snap := make(allocSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// foldAllocs folds the allocations made between two snapshots into
// per-bucket bytes, unsampled the way pprof does.
func foldAllocs(before, after allocSnapshot, unknown map[string]bool) fold {
	rate := float64(runtime.MemProfileRate)
	out := fold{}
	for stk, r := range after {
		b := before[stk]
		objs := float64(r.AllocObjects - b.AllocObjects)
		size := float64(r.AllocBytes - b.AllocBytes)
		if objs <= 0 || size <= 0 {
			continue
		}
		if rate > 1 {
			size /= 1 - math.Exp(-size/objs/rate)
		}
		out[foldStack(symbolize(r.Stack()), unknown)] += size
	}
	return out
}

// symbolize expands program counters into frames, leaf first, inlined
// calls included.
func symbolize(pcs []uintptr) []frame {
	var out []frame
	it := runtime.CallersFrames(pcs)
	for {
		f, more := it.Next()
		out = append(out, frame{f.Function, f.File})
		if !more {
			return out
		}
	}
}

// sortedKeys returns a fold's buckets in name order.
func (f fold) sortedKeys() []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// total sums every bucket.
func (f fold) total() float64 {
	var t float64
	for _, v := range f {
		t += v
	}
	return t
}

// profile is the part of a decoded profile.proto message the fold reads.
type profile struct {
	sampleTypes []string
	samples     []pbSample
	locs        map[uint64][]frame // location id -> frames, leaf first
}

type pbSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes an uncompressed profile.proto message (the format
// runtime/pprof writes), keeping sample types, samples, locations and
// functions.
func parseProfile(b []byte) (*profile, error) {
	var (
		strs      []string
		typeIdx   []int64
		samples   []pbSample
		locLines  = map[uint64][]uint64{} // location -> function ids, leaf first
		funcs     = map[uint64][2]int64{} // function id -> name, file string index
		decodeErr error
	)
	err := walk(b, func(tag int, v uint64, data []byte) error {
		switch tag {
		case 1: // sample_type
			return walk(data, func(tag int, v uint64, _ []byte) error {
				if tag == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err := walk(data, func(tag int, v uint64, data []byte) error {
				switch tag {
				case 1:
					return packed(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(data, func(tag int, v uint64, data []byte) error {
				switch tag {
				case 1:
					id = v
				case 4: // line
					return walk(data, func(tag int, v uint64, _ []byte) error {
						if tag == 1 {
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
			var nf [2]int64
			err := walk(data, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			decodeErr = errors.New("string index out of range")
			return ""
		}
		return strs[i]
	}
	p := &profile{samples: samples, locs: make(map[uint64][]frame, len(locLines))}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, fns := range locLines {
		p.locs[id] = make([]frame, 0, len(fns))
		for _, f := range fns {
			nf, ok := funcs[f]
			if !ok {
				return nil, fmt.Errorf("location %d: unknown function %d", id, f)
			}
			p.locs[id] = append(p.locs[id], frame{str(nf[0]), str(nf[1])})
		}
	}
	for _, s := range samples {
		for _, id := range s.locs {
			if _, ok := p.locs[id]; !ok {
				return nil, fmt.Errorf("sample: unknown location %d", id)
			}
		}
	}
	return p, decodeErr
}

// walk calls fn for every field of a protobuf message: v holds a varint
// field's value, data a length-delimited field's bytes. Fixed-width fields
// are skipped.
func walk(b []byte, fn func(tag int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		tag, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(tag, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed reads a repeated varint field in either encoding: one value (data
// nil) or a packed run.
func packed(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
