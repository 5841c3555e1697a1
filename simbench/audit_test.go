package main

import (
	"strings"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/metrics"
	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// cleanResult is a hand-built run that keeps every invariant.
func cleanResult() *overlay.Result {
	return &overlay.Result{
		OfferedFrames: 10, AcceptedFrames: 7, DropsRing: 2, DropsAdmission: 1,
		DeliveredSegments: 5, Latency: metrics.NewHistogram(),
	}
}

func TestAudit(t *testing.T) {
	tcp := overlay.Scenario{Proto: skb.TCP}
	udp := overlay.Scenario{Proto: skb.UDP}
	corrupting := overlay.Scenario{Proto: skb.TCP, Faults: &fault.Plan{Wire: fault.Profile{Corrupt: 0.01}}}
	lossy := overlay.Scenario{Proto: skb.TCP, Faults: fault.ChaosProfiles()["random"]}
	fab := overlay.Scenario{Proto: skb.TCP, Fabric: &fabric.Config{Hosts: 2}}
	underlay := func(r *overlay.Result) {
		r.UnderlaySent, r.UnderlayInFlightStart = 10, 2
		r.UnderlayDelivered, r.UnderlayDrops, r.UnderlayInFlightEnd = 8, 1, 3
	}
	for _, c := range []struct {
		name       string
		sc         overlay.Scenario
		edit       func(*overlay.Result)
		violations uint64
		want       string // substring of the single failure; "" for none
	}{
		{"clean", tcp, func(*overlay.Result) {}, 0, ""},
		{"nic conservation", tcp, func(r *overlay.Result) { r.OfferedFrames++ }, 0, "NIC conservation"},
		{"tcp out of order", tcp, func(r *overlay.Result) { r.DeliveredOutOfOrder = 1 }, 0, "out of order"},
		{"udp out of order is allowed", udp, func(r *overlay.Result) { r.DeliveredOutOfOrder = 1 }, 0, ""},
		{"wire errors", lossy, func(r *overlay.Result) { r.WireErrors = 1 }, 0, "wire errors=1"},
		{"reassembly errors", tcp, func(r *overlay.Result) { r.ReassemblyErrors = 1 }, 0, "reassembly errors=1"},
		{"errors under corruption are expected", corrupting, func(r *overlay.Result) { r.WireErrors, r.ReassemblyErrors = 3, 1 }, 0, ""},
		{"causal violations", tcp, func(*overlay.Result) {}, 2, "causal"},
		{"underlay conserved", fab, underlay, 0, ""},
		{"underlay conservation", fab, func(r *overlay.Result) { underlay(r); r.UnderlayDrops = 0 }, 0, "underlay conservation"},
		{"nothing delivered", tcp, func(r *overlay.Result) { r.DeliveredSegments = 0 }, 0, "no segments"},
	} {
		r := cleanResult()
		c.edit(r)
		got := audit(c.sc, r, c.violations)
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%s: unexpected failures %q", c.name, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%s: failures %q, want one containing %q", c.name, got, c.want)
		}
	}
}

// TestTallyCountsFailedRuns checks that a conservation violation found by
// the audit is counted as a failed run, once per run however many
// invariants it breaks.
func TestTallyCountsFailedRuns(t *testing.T) {
	jobs := []job{
		{key: "ok", sc: overlay.Scenario{Proto: skb.TCP, System: steering.MFlow}},
		{key: "leaky", sc: overlay.Scenario{Proto: skb.TCP}},
	}
	bad := cleanResult()
	bad.OfferedFrames += 3
	bad.DeliveredOutOfOrder = 1
	var outs []jobOut
	for i, r := range []*overlay.Result{cleanResult(), bad} {
		outs = append(outs, jobOut{res: r, failures: audit(jobs[i].sc, r, 0), fp: jobs[i].key})
	}
	tl := newTally(jobs, outs)
	if tl.failedRuns != 1 || len(tl.failures) != 2 {
		t.Fatalf("failedRuns=%d failures=%v, want 1 run with 2 failures", tl.failedRuns, tl.failures)
	}
	for _, f := range tl.failures {
		if f.key != "leaky" {
			t.Errorf("failure attributed to %q, want leaky", f.key)
		}
	}
	if moved := checkRepeat(jobs, tl, newTally(jobs, outs)); len(moved) != 0 {
		t.Errorf("equal repetitions reported as moved: %v", moved)
	}
	outs[0].fp = "changed"
	if moved := checkRepeat(jobs, tl, newTally(jobs, outs)); len(moved) != 1 || moved[0].key != "ok" {
		t.Errorf("moved = %v, want the one changed scenario", moved)
	}
}
