package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// A CPU profile as runtime/pprof writes it is a gzip-compressed protobuf
// (github.com/google/pprof/proto/profile.proto). The benchmark reads only
// the fields it attributes, with a minimal wire-format decoder, so it needs
// no module beyond the standard library.

// sample is one profile sample: its CPU time, its stack as function names
// with the leaf first (inlined frames expanded), and its pprof labels.
type sample struct {
	nanos  int64
	frames []string
	labels map[string]string
}

// Field numbers of profile.proto used below.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	valueTypeUnit = 2

	labelKey = 1
	labelStr = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("pprof: truncated protobuf")

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField calls fn for every field of the message b. For varint fields
// v holds the value; for length-delimited fields data holds the payload.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			if v, n, err = readVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case wireFixed64, wireFixed32:
			size := 8
			if wire == wireFixed32 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case wireBytes:
			l, n, err := readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			data, b = b[:l], b[l:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which encoders may
// write either packed (one length-delimited field) or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n, err := readVarint(data)
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof CPU profile and returns
// its samples, each weighted by its CPU nanoseconds.
func parseProfile(r io.Reader) ([]sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // string-table indices of key and value
	}
	var (
		strs       []string
		valueUnits []uint64
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames  = map[uint64]uint64{}   // function id → string-table index
	)
	err = eachField(raw, func(num, wire int, _ uint64, data []byte) error {
		if wire != wireBytes {
			return nil
		}
		switch num {
		case profSampleType:
			return eachField(data, func(num, _ int, v uint64, _ []byte) error {
				if num == valueTypeUnit {
					valueUnits = append(valueUnits, v)
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case sampleLocation:
					s.locs, err = appendVarints(s.locs, wire, v, data)
				case sampleValue:
					s.values, err = appendVarints(s.values, wire, v, data)
				case sampleLabel:
					var kv [2]uint64
					err = eachField(data, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case labelKey:
							kv[0] = v
						case labelStr:
							kv[1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(data, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := -1
	for i, u := range valueUnits {
		if str(u) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("pprof: profile has no nanoseconds sample value")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if valueIdx >= len(rs.values) {
			return nil, errors.New("pprof: sample without a nanoseconds value")
		}
		s := sample{nanos: int64(rs.values[valueIdx])}
		for _, l := range rs.locs {
			for _, f := range locFuncs[l] {
				s.frames = append(s.frames, str(funcNames[f]))
			}
		}
		for _, kv := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// layers are the repository's internal packages whose leaf-frame (self)
// time the traced run reports as <layer>.self_s. Time whose leaf frame
// lies anywhere else — the Go runtime, the standard library, the
// benchmark itself, internal packages not listed here — is reported as
// unattributed.self_s, so the buckets always add up to the profile total.
var layers = []string{
	"sim", "overlay", "skb", "traffic", "packet", "gro", "netdev", "nic",
	"proto", "core", "causal", "obs", "metrics", "fault", "fabric",
}

// cumulatives are the named entry points whose cumulative time (every
// sample with one of the functions anywhere on its stack, counted once)
// the traced run reports.
var cumulatives = []struct {
	metric string
	funcs  []string
}{
	{"sim.jitter_s", []string{"mflow/internal/sim.(*Core).adjust"}},
	{"overlay.stage_s", []string{"mflow/internal/overlay.(*stage).process", "mflow/internal/overlay.(*stage).processProfiled"}},
	{"traffic.fill_s", []string{"mflow/internal/traffic.FillPattern"}},
	// Sampled GC and allocation: the background mark, sweep and scavenge
	// workers, mutator assists, and every allocation path.
	{"runtime.gc_s", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.mallocgc"}},
}

// packageOf returns the internal package a function belongs to ("sim" for
// "mflow/internal/sim.(*Core).adjust"), or "" outside mflow/internal.
func packageOf(fn string) string {
	const prefix = "mflow/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribution is a profile's CPU time broken down by layer.
type attribution struct {
	total time.Duration
	// self maps each name in layers, plus "unattributed", to the time
	// whose leaf frame lies there.
	self map[string]time.Duration
	// cum maps each cumulatives metric to its time.
	cum map[string]time.Duration
	// bySpan maps each value of the "span" pprof label ("" when unset) to
	// the time sampled under it.
	bySpan map[string]time.Duration
}

func attribute(samples []sample) attribution {
	a := attribution{
		self:   map[string]time.Duration{"unattributed": 0},
		cum:    map[string]time.Duration{},
		bySpan: map[string]time.Duration{},
	}
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
		a.self[l] = 0
	}
	for _, c := range cumulatives {
		a.cum[c.metric] = 0
	}
	for _, s := range samples {
		d := time.Duration(s.nanos)
		a.total += d
		a.bySpan[s.labels["span"]] += d
		leaf := ""
		if len(s.frames) > 0 {
			leaf = packageOf(s.frames[0])
		}
		if !named[leaf] {
			leaf = "unattributed"
		}
		a.self[leaf] += d
		for _, c := range cumulatives {
			if onStack(s.frames, c.funcs) {
				a.cum[c.metric] += d
			}
		}
	}
	return a
}

func onStack(frames, funcs []string) bool {
	for _, f := range frames {
		for _, g := range funcs {
			if f == g {
				return true
			}
		}
	}
	return false
}
