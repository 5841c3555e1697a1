package overlay

import (
	"strings"
	"testing"

	"mflow/internal/obs"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

// obsScenario is a small deterministic MFLOW TCP run with the registry on.
func obsScenario() (Scenario, *obs.Registry) {
	reg := obs.New()
	return Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
		Obs:    reg,
		Warmup: 2 * sim.Millisecond, Measure: 5 * sim.Millisecond,
	}, reg
}

// TestObsStageLatencyCountsMatchDeliveries asserts the acceptance criterion:
// per-stage latency histograms are recorded for every packet (no tracer
// attached at all here), and the socket-stage count over the measured window
// equals the delivered segment count exactly.
func TestObsStageLatencyCountsMatchDeliveries(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	if res.DeliveredSegments == 0 {
		t.Fatal("scenario delivered nothing")
	}
	m, ok := res.Obs.Get("stage_latency", "stage", "socket")
	if !ok {
		t.Fatalf("no socket stage_latency series; have %v", res.Obs.Names())
	}
	if m.Count != res.DeliveredSegments {
		t.Errorf("stage_latency{socket} count %d != delivered segments %d", m.Count, res.DeliveredSegments)
	}
	// Every pipeline stage must have recorded too, with sane latencies.
	var stages int
	for _, name := range res.Obs.Names() {
		if !strings.HasPrefix(name, "stage_latency{") {
			continue
		}
		stages++
		if res.Obs[name].Count == 0 {
			t.Errorf("%s recorded nothing", name)
		}
		if res.Obs[name].Max <= 0 {
			t.Errorf("%s has non-positive max latency", name)
		}
	}
	if stages < 3 {
		t.Errorf("expected >=3 instrumented stages, got %d", stages)
	}
}

// TestObsQueueDepthsNonZero asserts the other run-level acceptance
// criterion: a MFLOW TCP run samples non-zero p99 depth for the NIC ring
// and for at least one backlog queue.
func TestObsQueueDepthsNonZero(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	ring, ok := res.Obs.Get("queue_depth", "queue", "nic_ring0")
	if !ok {
		t.Fatalf("no NIC ring depth series; have %v", res.Obs.Names())
	}
	if ring.P99 <= 0 {
		t.Errorf("NIC ring p99 depth is zero: %+v", ring)
	}
	if ring.Count == 0 {
		t.Error("sampler took no ring samples in the measured window")
	}
	var backlogP99 int64
	for _, name := range res.Obs.Names() {
		if strings.HasPrefix(name, "queue_depth{queue=backlog:") && res.Obs[name].P99 > backlogP99 {
			backlogP99 = res.Obs[name].P99
		}
	}
	if backlogP99 <= 0 {
		t.Error("no backlog queue sampled a non-zero p99 depth")
	}
}

// TestObsStageGapsRecorded checks inter-stage queueing delay series exist
// for the MFLOW pipeline's handoffs (dispatch → branch, branch → socket).
func TestObsStageGapsRecorded(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	var gaps []string
	for _, name := range res.Obs.Names() {
		if strings.HasPrefix(name, "stage_gap{") && res.Obs[name].Count > 0 {
			gaps = append(gaps, name)
		}
	}
	if len(gaps) < 2 {
		t.Errorf("expected >=2 stage_gap series, got %v", gaps)
	}
	var toSocket bool
	for _, g := range gaps {
		if strings.Contains(g, "to=socket") {
			toSocket = true
		}
	}
	if !toSocket {
		t.Errorf("no gap series terminating at the socket: %v", gaps)
	}
}

// TestObsCountersAndDevices checks the synced NIC/device counters cover the
// measured window (received > 0, per-device segment counts present).
func TestObsCountersAndDevices(t *testing.T) {
	sc, _ := obsScenario()
	res := Run(sc)
	if m, _ := res.Obs.Get("nic_received"); m.Value <= 0 {
		t.Errorf("nic_received not positive: %+v", m)
	}
	if m, ok := res.Obs.Get("device_segs", "device", "vxlan"); !ok || m.Value <= 0 {
		t.Errorf("vxlan device_segs missing or zero: %+v ok=%v", m, ok)
	}
	if m, _ := res.Obs.Get("socket_delivered_segs"); uint64(m.Value) != res.DeliveredSegments {
		t.Errorf("socket_delivered_segs %v != DeliveredSegments %d", m.Value, res.DeliveredSegments)
	}
}

// TestObsDeterministic runs the same observed scenario twice and expects
// identical snapshots — the registry must not perturb determinism.
func TestObsDeterministic(t *testing.T) {
	sc1, _ := obsScenario()
	sc2, _ := obsScenario()
	var b1, b2 strings.Builder
	if err := Run(sc1).Obs.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := Run(sc2).Obs.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("observed runs with identical seeds diverged")
	}
}

// TestObsDoesNotChangeResults guards the zero-overhead claim the other way:
// attaching a registry must not change the simulation's outcome.
func TestObsDoesNotChangeResults(t *testing.T) {
	sc, _ := obsScenario()
	plain := sc
	plain.Obs = nil
	a := Run(sc)
	b := Run(plain)
	if a.Gbps != b.Gbps || a.DeliveredSegments != b.DeliveredSegments {
		t.Errorf("observability changed the run: %.3f/%d vs %.3f/%d Gbps/segs",
			a.Gbps, a.DeliveredSegments, b.Gbps, b.DeliveredSegments)
	}
}

// TestObsWithTracerAndCoreLog exercises the full export path end to end on
// a UDP scenario: tracer + core log + registry on one run.
func TestObsWithTracerAndCoreLog(t *testing.T) {
	sc, _ := obsScenario()
	sc.Proto = skb.UDP
	pr := Probes{Tracer: trace.New(), CoreLog: &obs.CoreLog{}}
	pr.Tracer.OnlyFlow = 1
	pr.Tracer.OnlySeqBelow = 64
	res := RunProbed(sc, pr)
	if res.DeliveredSegments == 0 {
		t.Fatal("UDP scenario delivered nothing")
	}
	if len(pr.Tracer.Events()) == 0 {
		t.Error("tracer recorded nothing")
	}
	if len(pr.CoreLog.Intervals) == 0 {
		t.Error("core log recorded nothing")
	}
	evs := obs.ChromeTraceEvents(pr.Tracer.Events(), pr.CoreLog)
	if len(evs) <= len(pr.Tracer.Events()) {
		t.Errorf("chrome events %d should exceed tracer events %d", len(evs), len(pr.Tracer.Events()))
	}
}
