// Command simbench is the repository's benchmark: it runs one named
// workload — a fixed matrix of overlay scenarios — repeatedly for a given
// number of seconds on a pool no wider than the machine, audits every run,
// and prints the workload's metrics. With -trace 1 it also records spans
// around its calls into overlay, profiles the CPU with per-span pprof
// labels, and prints per-layer metrics instead of end-to-end ones.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 55, "failed": 0, "metrics": {"wall_s": {"value": 3.2, "unit": "s"}, ...}}
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine records what committed numbers must be read against.
type machine struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolWidth  int    `json:"pool_width"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tcp-multiflow, udp-small-msg or wire-chaos-probed")
	seed := fs.Uint64("seed", 1, "seed of every scenario in the matrix (0 selects the simulator's default, 42)")
	seconds := fs.Int("seconds", 10, "how long to repeat the matrix (at least one repetition)")
	traceOn := fs.Int("trace", 0, "1 records spans and a CPU profile and prints per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes its spans and profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}

	width := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < width {
		width = p
	}
	m := machine{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceOn,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), PoolWidth: width,
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	ctxLine, _ := json.Marshal(m)
	fmt.Fprintf(stdout, "context %s\n", ctxLine)

	b := &bench{w: w, jobs: w.matrix(*seed), width: width, origin: time.Now()}
	deadline := b.origin.Add(time.Duration(*seconds) * time.Second)

	var res result
	var err error
	if *traceOn == 0 {
		res = untraced(b, deadline, stdout)
	} else {
		res, err = traced(b, deadline, m, *traceDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// verdict audits every repetition plus one serial re-run of the matrix's
// last scenario, prints each failure with its scenario key, and prints the
// workload's sim_digest. It returns the runs attempted and failed.
func verdict(b *bench, reps []rep, stdout io.Writer) (attempted, failed int) {
	first := reps[0].t
	var fails []failure
	for i, r := range reps {
		attempted += len(b.jobs)
		failed += r.t.failedRuns
		fails = append(fails, r.t.failures...)
		if i > 0 {
			moved := checkRepeat(b.jobs, first, r.t)
			failed += len(moved)
			fails = append(fails, moved...)
		}
	}
	last := len(b.jobs) - 1
	again, _ := b.jobs[last].run()
	attempted++
	if again.Fingerprint() != first.fps[last] {
		failed++
		fails = append(fails, failure{b.jobs[last].key, "re-run fingerprint differs from the matrix run"})
	}
	for _, f := range fails {
		fmt.Fprintf(stdout, "FAIL %s: %s\n", f.key, f.msg)
	}
	fmt.Fprintf(stdout, "sim_digest %s %s\n", b.w.name, first.digest)
	return attempted, failed
}

// printMetrics prints one "name value unit" line per metric, in order.
func printMetrics(stdout io.Writer, names []string, ms map[string]metric) {
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %-24v %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []string{
	"wall_s", "segs_per_cpu_s", "segs_per_ref", "alloc_bytes_per_seg", "max_rss_mb", "setup_s",
	"failed_frac", "mflow_gbps", "mflow_lat_p50_us", "mflow_lat_p99_us",
}

// reported are the end-to-end metrics the result line carries. It leaves
// out:
//   - wall_s and segs_per_cpu_s, which swing with the machine's speed
//     (see ref.go), and wall_s also with how much traffic a seed's fault
//     plans let through; segs_per_ref carries the simulator's speed;
//   - failed_frac, which is zero on a correct run and which the line's
//     attempted and failed counts already carry;
//   - the MFLOW latency percentiles: the simulator's latency histograms
//     have buckets about 3% wide, so a percentile often reads the same
//     bucket for every seed, and a time that never changes cannot be told
//     from a constant.
var reported = []string{
	"segs_per_ref", "alloc_bytes_per_seg", "max_rss_mb", "setup_s", "mflow_gbps",
}

func untraced(b *bench, deadline time.Time, stdout io.Writer) result {
	warm := b.matrix(0, false)
	// Peak memory after one whole matrix: read later, it would also grow
	// with the number of repetitions, which depends on the machine's speed.
	rss := maxRSSMB()
	var reps []rep
	var setups, refs []float64
	for {
		// A setup_s sample and a reference-kernel timing before each
		// repetition, so both sample the machine across the run like the
		// repetitions do.
		runtime.GC()
		setups = append(setups, b.setupTime())
		refs = append(refs, refCPU(b.width).Seconds())
		r := b.matrix(len(reps)+1, false)
		reps = append(reps, r)
		if time.Now().Add(r.wall).After(deadline) {
			break
		}
	}
	attempted, failed := verdict(b, append([]rep{warm}, reps...), stdout)
	t := warm.t

	var walls, segsPerCPU, allocPerSeg []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		segsPerCPU = append(segsPerCPU, ratio(float64(r.t.segs), r.host.cpu.Seconds()))
		allocPerSeg = append(allocPerSeg, ratio(float64(r.host.allocBytes), float64(r.t.segs)))
	}
	correct := failed == 0
	n := t.mflowLat.Count()
	q, ok := tailQuantile(n)
	if !ok || q < 0.99 {
		fmt.Fprintf(stdout, "FAIL %s: %d MFLOW latency samples leave fewer than 10 beyond p99\n", b.w.name, n)
		correct = false
	}
	usOf := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := map[string]metric{
		"wall_s":              {median(walls), "s"},
		"segs_per_cpu_s":      {median(segsPerCPU), "seg/s"},
		"segs_per_ref":        {median(segsPerCPU) * median(refs), "seg/ref"},
		"alloc_bytes_per_seg": {median(allocPerSeg), "B"},
		"max_rss_mb":          {rss, "MB"},
		"setup_s":             {median(setups), "s"},
		"failed_frac":         {ratio(float64(failed), float64(attempted)), "ratio"},
		"mflow_gbps":          {t.mflowGbps, "Gbps"},
		"mflow_lat_p50_us":    {usOf(t.mflowLat.Median()), "us"},
		"mflow_lat_p99_us":    {usOf(t.mflowLat.P99()), "us"},
	}
	printMetrics(stdout, endToEnd, ms)
	fmt.Fprintf(stdout, "mflow_lat_samples %d (highest percentile with >= 10 samples beyond it: p%g = %v us)\n",
		n, q*100, usOf(t.mflowLat.Quantile(q)))
	fmt.Fprintf(stdout, "repetitions %d timed, 1 warm-up\n", len(reps))

	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range reported {
		out.Metrics[name] = ms[name]
	}
	return out
}

// perLayer lists the traced run's metrics in print order.
var perLayer = []string{
	"sim.events", "sim.heap_ops_per_seg", "sim.coalesced_frac", "sim.inlined_frac", "sim.peak_heap",
	"sim.ns_per_event", "sim.self_s", "sim.jitter_s",
	"overlay.build_s", "overlay.run_s", "overlay.stage_s", "overlay.self_s",
	"skb.self_s", "runtime.alloc_objects_per_seg", "runtime.gc_cycles", "runtime.gc_s",
	"traffic.self_s", "traffic.fill_s", "traffic.msgs", "packet.self_s", "packet.wire_errors",
	"gro.factor", "gro.self_s", "netdev.self_s", "nic.offered_frames", "nic.ring_drops", "nic.self_s",
	"proto.retransmits", "proto.rto_timeouts", "proto.ofo_segs", "proto.dup_segs", "proto.self_s",
	"core.holes_released", "core.stale_released", "core.ooo_skbs", "core.switches", "core.self_s",
	"causal.self_s", "obs.self_s", "metrics.self_s", "causal.violations",
	"fault.injected", "fault.self_s", "fabric.underlay_sent", "fabric.underlay_drops", "fabric.self_s",
	"harness.jobs", "harness.job_ms_p50", "harness.job_ms_max", "harness.busy_frac",
	"trace.overhead_frac", "unattributed.self_s", "profile.cpu_s",
}

// traced alternates untraced repetitions (the baseline for
// trace.overhead_frac, host CPU per event and allocation counts) with
// traced ones (spans, and the CPU profiler on), so both sample the machine
// at the same times. It then derives the per-layer metrics and writes the
// spans and each traced repetition's profile to dir.
func traced(b *bench, deadline time.Time, m machine, dir string, stdout io.Writer) (result, error) {
	warm := b.matrix(0, false)
	var base, tr []rep
	var profs [][]byte
	var samples []sample
	for {
		base = append(base, b.matrix(len(base)+len(tr)+1, false))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("start CPU profile: %w", err)
		}
		r := b.matrix(len(base)+len(tr)+1, true)
		pprof.StopCPUProfile()
		tr = append(tr, r)
		profs = append(profs, prof.Bytes())
		s, err := parseProfile(bytes.NewReader(prof.Bytes()))
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
		if time.Now().Add(r.wall + base[len(base)-1].wall).After(deadline) {
			break
		}
	}

	reps := append(append([]rep{warm}, base...), tr...)
	attempted, failed := verdict(b, reps, stdout)
	att := attribute(samples)

	t := warm.t
	segs := float64(t.segs)
	n := float64(len(tr))
	ms := map[string]metric{}
	count := func(name string, v float64) { ms[name] = metric{v, "count"} }
	for _, c := range resultCounters {
		count(c.name, float64(t.counters[c.name]))
	}
	count("sim.peak_heap", float64(t.sched.PeakHeap))
	count("causal.violations", float64(t.violations))
	count("harness.jobs", float64(len(b.jobs)))
	ms["sim.heap_ops_per_seg"] = metric{ratio(float64(t.sched.HeapOps()), segs), "op/seg"}
	ms["sim.coalesced_frac"] = metric{ratio(float64(t.sched.Coalesced), float64(t.sched.Scheduled)), "ratio"}
	ms["sim.inlined_frac"] = metric{ratio(float64(t.sched.Inlined), float64(t.sched.Scheduled)), "ratio"}
	ms["gro.factor"] = metric{ratio(segs, t.groSKBs), "seg/skb"}

	var nsPerEvent, objsPerSeg, gcCycles, baseWalls []float64
	for _, r := range base {
		nsPerEvent = append(nsPerEvent, ratio(float64(r.host.cpu.Nanoseconds()), float64(r.t.sched.Scheduled)))
		objsPerSeg = append(objsPerSeg, ratio(float64(r.host.allocObjects), float64(r.t.segs)))
		gcCycles = append(gcCycles, float64(r.host.gcCycles))
		baseWalls = append(baseWalls, r.wall.Seconds())
	}
	ms["sim.ns_per_event"] = metric{median(nsPerEvent), "ns"}
	ms["runtime.alloc_objects_per_seg"] = metric{median(objsPerSeg), "obj/seg"}
	ms["runtime.gc_cycles"] = metric{median(gcCycles), "count"}

	perRep := func(d time.Duration) float64 { return d.Seconds() / n }
	for _, l := range layers {
		ms[l+".self_s"] = metric{perRep(att.self[l]), "s"}
	}
	ms["unattributed.self_s"] = metric{perRep(att.self["unattributed"]), "s"}
	ms["profile.cpu_s"] = metric{perRep(att.total), "s"}
	for _, c := range cumulatives {
		ms[c.metric] = metric{perRep(att.cum[c.metric]), "s"}
	}

	var build, runs time.Duration
	var jobMS, busy, tracedWalls []float64
	var spans []span
	for _, r := range tr {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
		var jobs []time.Duration
		for _, s := range r.spans {
			switch s.Name {
			case "scenario":
				jobs = append(jobs, s.dur())
				jobMS = append(jobMS, float64(s.dur())/float64(time.Millisecond))
			case "build":
				build += s.dur()
			case "run":
				runs += s.dur()
			}
		}
		busy = append(busy, busyFrac(jobs, b.width, r.wall))
		// Span ids restart at 1 in every repetition; shift them so they
		// stay unique across the written trace.
		off := len(spans)
		for _, s := range r.spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
	}
	ms["overlay.build_s"] = metric{perRep(build), "s"}
	ms["overlay.run_s"] = metric{perRep(runs), "s"}
	ms["harness.job_ms_p50"] = metric{median(jobMS), "ms"}
	ms["harness.job_ms_max"] = metric{maxOf(jobMS), "ms"}
	ms["harness.busy_frac"] = metric{median(busy), "ratio"}
	ms["trace.overhead_frac"] = metric{median(tracedWalls)/median(baseWalls) - 1, "ratio"}

	printMetrics(stdout, perLayer, ms)
	fmt.Fprintf(stdout, "repetitions %d untraced, %d traced; profile samples %d\n", len(base), len(tr), len(samples))

	bySpan := map[string]float64{}
	for k, d := range att.bySpan {
		if k == "" {
			k = "unlabelled"
		}
		bySpan[k] = perRep(d)
	}
	if err := writeTrace(dir, m, t.digest, spans, bySpan, ms, profs); err != nil {
		return result{}, err
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range perLayer {
		out.Metrics[name] = ms[name]
	}
	return out, nil
}

// writeTrace writes the traced run's spans, per-span CPU and metrics as
// JSON, and each traced repetition's CPU profile for go tool pprof (which
// merges several given together), into dir.
func writeTrace(dir string, m machine, digest string, spans []span, bySpan map[string]float64, ms map[string]metric, profs [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", m.Workload, m.Seed))
	doc, err := json.MarshalIndent(struct {
		Machine   machine            `json:"machine"`
		SimDigest string             `json:"sim_digest"`
		Metrics   map[string]metric  `json:"metrics"`
		SpanCPUS  map[string]float64 `json:"span_cpu_s"`
		Spans     []span             `json:"spans"`
	}{m, digest, ms, bySpan, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", doc, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	for i, p := range profs {
		if err := os.WriteFile(fmt.Sprintf("%s-rep%d.pprof", base, i+1), p, 0o644); err != nil {
			return fmt.Errorf("write profile: %w", err)
		}
	}
	return nil
}
