package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf encodes the protobuf wire format for hand-made test profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) uint(num int, x uint64) {
	p.varint(uint64(num) << 3)
	p.varint(x)
}

func (p *pbuf) bytes(num int, data []byte) {
	p.varint(uint64(num)<<3 | wireBytes)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pbuf) packed(num int, xs ...uint64) {
	var q pbuf
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// handMadeProfile builds a small CPU profile whose attribution is known:
//
//	stack (leaf first)                         ns   label span
//	math.Exp ⇐ sim.adjust (one inlined location) ⇐ stage.process ⇐ main    10   run
//	runtime.mallocgc ⇐ stage.process ⇐ main                               20
//	traffic.FillPattern ⇐ main                                            30
//	stage.process ⇐ main                                                  40
//	steering.Pick ⇐ main                                                   5
func handMadeProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Exp", "mflow/internal/sim.(*Core).adjust", "mflow/internal/overlay.(*stage).process",
		"runtime.mallocgc", "mflow/internal/traffic.FillPattern", "main.main",
		"mflow/internal/steering.Pick", "span", "run"}
	var p pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pbuf
		q.uint(1, vt[0])
		q.uint(valueTypeUnit, vt[1])
		p.bytes(profSampleType, q.b)
	}
	sampleMsg := func(ns uint64, packed bool, label bool, locs ...uint64) {
		var q pbuf
		if packed {
			q.packed(sampleLocation, locs...)
		} else {
			for _, l := range locs {
				q.uint(sampleLocation, l)
			}
		}
		q.packed(sampleValue, 1, ns)
		if label {
			var l pbuf
			l.uint(labelKey, 12)
			l.uint(labelStr, 13)
			q.bytes(sampleLabel, l.b)
		}
		p.bytes(profSample, q.b)
	}
	ms := uint64(time.Millisecond)
	sampleMsg(10*ms, true, true, 1, 2, 5)
	sampleMsg(20*ms, false, false, 3, 2, 5)
	sampleMsg(30*ms, true, false, 4, 5)
	sampleMsg(40*ms, false, false, 2, 5)
	sampleMsg(5*ms, true, false, 6, 5)
	// Location 1 holds the inlined math.Exp inside sim.adjust.
	locs := map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}}
	for id := uint64(1); id <= 6; id++ {
		var q pbuf
		q.uint(locID, id)
		for _, fn := range locs[id] {
			var l pbuf
			l.uint(lineFunction, fn)
			l.uint(2, 99) // line number
			q.bytes(locLine, l.b)
		}
		p.bytes(profLocation, q.b)
	}
	for id, name := range []uint64{5, 6, 7, 8, 9, 10, 11} {
		var q pbuf
		q.uint(funcID, uint64(id+1))
		q.uint(funcName, name)
		p.bytes(profFunction, q.b)
	}
	// The string table comes last, as runtime/pprof writes it.
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeHandMadeProfile(t *testing.T) {
	samples, err := parseProfile(bytes.NewReader(handMadeProfile(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5", len(samples))
	}
	if got := samples[0].frames; len(got) != 4 || got[0] != "math.Exp" || got[1] != "mflow/internal/sim.(*Core).adjust" {
		t.Fatalf("first stack = %q, want the inlined math.Exp leaf first", got)
	}
	a := attribute(samples)
	ms := time.Millisecond
	if a.total != 105*ms {
		t.Errorf("total = %v, want 105ms", a.total)
	}
	wantSelf := map[string]time.Duration{
		// math.Exp, runtime.mallocgc and the unnamed steering package.
		"unattributed": 35 * ms,
		"traffic":      30 * ms,
		"overlay":      40 * ms,
		"sim":          0,
	}
	for k, want := range wantSelf {
		if a.self[k] != want {
			t.Errorf("self[%s] = %v, want %v", k, a.self[k], want)
		}
	}
	var sum time.Duration
	for _, d := range a.self {
		sum += d
	}
	if sum != a.total {
		t.Errorf("self buckets sum to %v, want the total %v", sum, a.total)
	}
	wantCum := map[string]time.Duration{
		"sim.jitter_s":    10 * ms,
		"overlay.stage_s": 70 * ms,
		"traffic.fill_s":  30 * ms,
		"runtime.gc_s":    20 * ms,
	}
	for k, want := range wantCum {
		if a.cum[k] != want {
			t.Errorf("cum[%s] = %v, want %v", k, a.cum[k], want)
		}
	}
	if a.bySpan["run"] != 10*ms || a.bySpan[""] != 95*ms {
		t.Errorf("bySpan = %v, want run=10ms and unlabelled=95ms", a.bySpan)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mflow/internal/sim.(*Scheduler).pop":          "sim",
		"mflow/internal/overlay.(*host).finish.func1":  "overlay",
		"mflow/internal/harness.Map[...].func1":        "harness",
		"mflow/internal/skb":                           "skb",
		"runtime.mallocgc":                             "",
		"main.main":                                    "",
		"github.com/x/mflow/internal/sim.(*Core).Exec": "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if len(samples) == 0 || a.total <= 0 {
		t.Fatalf("no samples from 300ms of CPU (x=%v)", x)
	}
	if len(samples[0].frames) == 0 {
		t.Errorf("sample without frames")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("parsed a non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a length-delimited field cut short
	zw.Close()
	if _, err := parseProfile(&gz); err == nil {
		t.Error("parsed a truncated protobuf")
	}
}
