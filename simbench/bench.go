package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"mflow/internal/harness"
	mmetrics "mflow/internal/metrics"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/steering"
)

// bench runs one workload's matrix, repeatedly, on the benchmark's pool.
type bench struct {
	w     workload
	jobs  []job
	width int
	// origin is the zero of every span timestamp.
	origin time.Time
}

// span is one timed interval of the traced run: the workload's matrix, a
// scenario, or a scenario's build, run and audit steps. The spans of one
// scenario share its key.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Key     string  `json:"key,omitempty"`
	Rep     int     `json:"rep"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// jobOut is what one scenario run leaves behind once audited.
type jobOut struct {
	res        *overlay.Result
	violations uint64
	failures   []string
	fp         string
	// spans holds the scenario span first, then its steps (traced only).
	spans []span
}

// hostSample is the process's cumulative host cost at one instant.
type hostSample struct {
	cpu                                time.Duration // user + system
	allocBytes, allocObjects, gcCycles uint64
}

var hostMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	return hostSample{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   ms[0].Value.Uint64(),
		allocObjects: ms[1].Value.Uint64(),
		gcCycles:     ms[2].Value.Uint64(),
	}
}

// maxRSSMB is the process's peak resident memory (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// rep is one run of the whole matrix.
type rep struct {
	wall time.Duration
	host hostSample // cost of this repetition alone
	t    *tally
	// spans are the repetition's spans (traced only), workload span first.
	spans []span
}

// setupBatch is the least time one setup_s sample builds for. One build
// of a small matrix takes well under a millisecond and its time swings
// with where garbage collection falls, so a sample is the mean over a
// batch of builds.
const setupBatch = 50 * time.Millisecond

// setupTime builds every single-host topology of the matrix with
// overlay.NewStack, serially and without running any event, repeatedly
// for at least setupBatch, and returns the mean time per matrix.
func (b *bench) setupTime() float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < setupBatch {
		for _, j := range b.jobs {
			if j.singleHost() {
				overlay.NewStack(j.sc)
			}
		}
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// matrix runs every job once on the pool. When traced, each step runs
// under pprof labels and is recorded as a span.
func (b *bench) matrix(idx int, traced bool) rep {
	runtime.GC() // start each repetition from the same heap state, untimed
	before := readHost()
	t0 := time.Now()
	outs := harness.Map(b.width, b.jobs, func(_ int, j job) jobOut { return b.runJob(j, idx, traced) })
	wall := time.Since(t0)
	after := readHost()
	r := rep{
		wall: wall,
		host: hostSample{
			cpu:          after.cpu - before.cpu,
			allocBytes:   after.allocBytes - before.allocBytes,
			allocObjects: after.allocObjects - before.allocObjects,
			gcCycles:     after.gcCycles - before.gcCycles,
		},
		t: newTally(b.jobs, outs),
	}
	if traced {
		id := 1
		r.spans = append(r.spans, span{ID: id, Name: "workload", Rep: idx,
			StartUS: us(t0.Sub(b.origin)), EndUS: us(t0.Add(wall).Sub(b.origin))})
		for _, o := range outs {
			scen := id + 1
			for k, s := range o.spans {
				id++
				s.ID, s.Parent = id, scen
				if k == 0 {
					s.Parent = 1
				}
				r.spans = append(r.spans, s)
			}
		}
	}
	return r
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runJob builds, runs and audits one scenario.
func (b *bench) runJob(j job, idx int, traced bool) jobOut {
	var o jobOut
	start := time.Now()
	step := func(name string, fn func()) {
		if !traced {
			fn()
			return
		}
		t0 := time.Now()
		pprof.Do(context.Background(), pprof.Labels("workload", b.w.name, "scenario", j.key, "span", name),
			func(context.Context) { fn() })
		o.spans = append(o.spans, span{Name: name, Key: j.key, Rep: idx,
			StartUS: us(t0.Sub(b.origin)), EndUS: us(time.Since(b.origin))})
	}
	step("build", func() {
		if j.singleHost() {
			overlay.NewStack(j.sc)
		}
	})
	step("run", func() { o.res, o.violations = j.run() })
	step("audit", func() {
		o.failures = audit(j.sc, o.res, o.violations)
		o.fp = o.res.Fingerprint()
	})
	if traced {
		o.spans = append([]span{{Name: "scenario", Key: j.key, Rep: idx,
			StartUS: us(start.Sub(b.origin)), EndUS: us(time.Since(b.origin))}}, o.spans...)
	}
	return o
}

// failure is one audit failure of one scenario run.
type failure struct{ key, msg string }

// resultCounters are the per-layer counters summed from overlay.Result
// over the matrix.
var resultCounters = []struct {
	name string
	get  func(*overlay.Result) uint64
}{
	{"sim.events", func(r *overlay.Result) uint64 { return r.Sched.Scheduled }},
	{"traffic.msgs", func(r *overlay.Result) uint64 { return r.Latency.Count() }},
	{"packet.wire_errors", func(r *overlay.Result) uint64 { return r.WireErrors }},
	{"nic.offered_frames", func(r *overlay.Result) uint64 { return r.OfferedFrames }},
	{"nic.ring_drops", func(r *overlay.Result) uint64 { return r.DropsRing }},
	{"proto.retransmits", func(r *overlay.Result) uint64 { return r.Retransmits }},
	{"proto.rto_timeouts", func(r *overlay.Result) uint64 { return r.RTOTimeouts }},
	{"proto.ofo_segs", func(r *overlay.Result) uint64 { return r.TCPOFOSegments }},
	{"proto.dup_segs", func(r *overlay.Result) uint64 { return r.TCPDupSegments }},
	{"core.holes_released", func(r *overlay.Result) uint64 { return r.HolesReleased }},
	{"core.stale_released", func(r *overlay.Result) uint64 { return r.StaleReleased }},
	{"core.ooo_skbs", func(r *overlay.Result) uint64 { return r.OOOSKBs }},
	{"core.switches", func(r *overlay.Result) uint64 { return r.ReassemblySwitches }},
	{"fault.injected", func(r *overlay.Result) uint64 { return r.FaultsInjected }},
	{"fabric.underlay_sent", func(r *overlay.Result) uint64 { return r.UnderlaySent }},
	{"fabric.underlay_drops", func(r *overlay.Result) uint64 { return r.UnderlayDrops }},
}

// tally is the modelled outcome of one matrix run: deterministic for a
// seed, so every repetition must produce an equal tally.
type tally struct {
	fps      []string
	digest   string
	failures []failure
	// failedRuns counts runs with at least one failure.
	failedRuns int
	segs       uint64
	sched      sim.SchedStats
	counters   map[string]uint64
	violations uint64
	// groSKBs is the post-GRO skb count implied by each run's merge factor.
	groSKBs   float64
	mflowGbps float64
	mflowLat  *mmetrics.Histogram
}

func newTally(jobs []job, outs []jobOut) *tally {
	t := &tally{counters: map[string]uint64{}, mflowLat: mmetrics.NewHistogram()}
	h := sha256.New()
	for i, o := range outs {
		r := o.res
		t.fps = append(t.fps, o.fp)
		h.Write([]byte(o.fp))
		h.Write([]byte{0})
		for _, msg := range o.failures {
			t.failures = append(t.failures, failure{jobs[i].key, msg})
		}
		if len(o.failures) > 0 {
			t.failedRuns++
		}
		t.segs += r.DeliveredSegments
		t.sched.Merge(r.Sched)
		for _, c := range resultCounters {
			t.counters[c.name] += c.get(r)
		}
		t.violations += o.violations
		if r.GROFactor > 0 {
			t.groSKBs += float64(r.DeliveredSegments) / r.GROFactor
		}
		if jobs[i].sc.System == steering.MFlow {
			t.mflowGbps += r.Gbps
			t.mflowLat.Merge(r.Latency)
		}
	}
	t.digest = hex.EncodeToString(h.Sum(nil))
	return t
}

// checkRepeat compares a repetition's fingerprints with the first
// repetition's and returns one failure per scenario whose result moved.
func checkRepeat(jobs []job, first, again *tally) []failure {
	var bad []failure
	for i := range jobs {
		if again.fps[i] != first.fps[i] {
			bad = append(bad, failure{jobs[i].key, "result fingerprint differs between repetitions of the same seed"})
		}
	}
	return bad
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
