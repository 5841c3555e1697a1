package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkMetrics returns the units BENCHMARK.json, at the repository
// root, declares for its end-to-end and per-layer metrics.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range doc.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range doc.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

// checkDeclared fails unless got carries exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, label string, got map[string]metric, declared map[string]string) {
	t.Helper()
	if len(got) != len(declared) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(got), len(declared))
	}
	for name, unit := range declared {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", label, name, m, unit)
		}
	}
}

// runBench runs the benchmark in-process and returns its output lines and
// decoded result line.
func runBench(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: %+v\n%s", args, res, stdout.String())
	}
	return lines, res
}

func digestLine(lines []string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, "sim_digest ") {
			return l
		}
	}
	return ""
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's matrix")
	}
	declared, _ := benchmarkMetrics(t)
	for _, w := range workloads {
		lines, res := runBench(t, "-workload", w.name, "-seed", "3", "-seconds", "1")
		checkDeclared(t, w.name, res.Metrics, declared)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: metric %s = %v, want a positive value", w.name, name, m.Value)
			}
		}
		if digestLine(lines) == "" {
			t.Errorf("%s: no sim_digest line", w.name)
		}
	}
}

func TestSmokeTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload's matrix")
	}
	dir := t.TempDir()
	plain, _ := runBench(t, "-workload", "udp-small-msg", "-seconds", "1")
	traced, res := runBench(t, "-workload", "udp-small-msg", "-seconds", "1", "-trace", "1", "-trace-dir", dir)
	if d := digestLine(plain); d == "" || d != digestLine(traced) {
		t.Errorf("sim_digest differs: untraced %q, traced %q", d, digestLine(traced))
	}
	_, declared := benchmarkMetrics(t)
	checkDeclared(t, "traced udp-small-msg", res.Metrics, declared)
	if _, err := os.Stat(filepath.Join(dir, "udp-small-msg-seed1.json")); err != nil {
		t.Errorf("trace output: %v", err)
	}
	if profs, _ := filepath.Glob(filepath.Join(dir, "udp-small-msg-seed1-rep*.pprof")); len(profs) == 0 {
		t.Errorf("no CPU profile written")
	}
}
