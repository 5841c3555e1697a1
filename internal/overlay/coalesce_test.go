package overlay

import (
	"sort"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// withCoalescingDisabled runs f with scheduler run coalescing (and the
// inline delivery slot) switched off process-wide — the eager
// one-event-per-entry reference behaviour, equivalent to MFLOW_NOCOALESCE.
// Like withPoolDisabled it flips a global read by every run, so callers
// must run serially.
func withCoalescingDisabled(f func()) {
	restore := sim.SetCoalescing(false)
	defer restore()
	f()
}

// TestRunCoalescedFingerprints pins the tentpole's central invariant: run
// coalescing is timing-model-inert. Every steering system × protocol ×
// chaos profile (including the fault-free one) must produce bit-identical
// fingerprints — counters, CPU accounting, latency quantiles, the full obs
// snapshot — with coalescing enabled and force-disabled.
func TestRunCoalescedFingerprints(t *testing.T) {
	if !sim.CoalescingEnabled() {
		t.Skip("MFLOW_NOCOALESCE is set; the comparison needs the lazy side")
	}
	type cell struct {
		sys     steering.System
		proto   skb.Proto
		profile string // "" = fault-free
	}
	profiles := fault.ChaosProfiles()
	names := []string{""}
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)

	var cells []cell
	for _, sys := range steering.ExtendedSystems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, name := range names {
				cells = append(cells, cell{sys, proto, name})
			}
		}
	}
	if testing.Short() {
		cells = []cell{
			{steering.MFlow, skb.TCP, ""},
			{steering.MFlow, skb.UDP, "random"},
			{steering.RPS, skb.TCP, "burst"},
		}
	}

	mk := func(c cell) Scenario {
		sc := determinismScenario(c.sys, c.proto)
		if c.profile != "" {
			sc.Faults = profiles[c.profile]
		}
		return sc
	}

	coalesced := make([]string, len(cells))
	for i, c := range cells {
		coalesced[i] = Run(mk(c)).Fingerprint()
	}
	eager := make([]string, len(cells))
	withCoalescingDisabled(func() {
		for i, c := range cells {
			eager[i] = Run(mk(c)).Fingerprint()
		}
	})
	for i, c := range cells {
		if coalesced[i] != eager[i] {
			t.Errorf("%s/%s/%q: coalesced run diverged from eager reference:\n--- coalesced ---\n%s\n--- eager ---\n%s",
				c.sys, c.proto, c.profile, coalesced[i], eager[i])
		}
	}
}

// TestCoalescingTelemetry verifies a run's scheduler self-accounting is
// populated and that coalescing actually reduces heap traffic on a real
// pipeline — the quantitative claim the mflowbench telemetry line reports.
func TestCoalescingTelemetry(t *testing.T) {
	if !sim.CoalescingEnabled() {
		t.Skip("MFLOW_NOCOALESCE is set")
	}
	sc := determinismScenario(steering.MFlow, skb.TCP)
	res := Run(sc)
	st := res.Sched
	if st.Scheduled == 0 || st.HeapOps() == 0 {
		t.Fatalf("scheduler telemetry empty: %+v", st)
	}
	if st.Coalesced == 0 {
		t.Errorf("no run entries coalesced on an MFLOW pipeline: %+v", st)
	}
	if st.Inlined == 0 {
		t.Errorf("no events took the inline slot: %+v", st)
	}

	var eager sim.SchedStats
	withCoalescingDisabled(func() {
		eager = Run(determinismScenario(steering.MFlow, skb.TCP)).Sched
	})
	if eager.Scheduled != st.Scheduled {
		t.Fatalf("logical event counts differ: coalesced %d eager %d", st.Scheduled, eager.Scheduled)
	}
	if st.HeapOps() >= eager.HeapOps() {
		t.Errorf("coalescing did not reduce heap ops: %d vs eager %d", st.HeapOps(), eager.HeapOps())
	}
	if st.PeakHeap > eager.PeakHeap {
		t.Errorf("coalescing grew the peak heap: %d vs eager %d", st.PeakHeap, eager.PeakHeap)
	}
}

// deepLaneScenario is the client-bound cell where TCP senders build deep
// done lanes: 16 B messages over 20 flows with the default window of 2048
// segments, on the multi-flow core layout.
func deepLaneScenario(sys steering.System) Scenario {
	sc := determinismScenario(sys, skb.TCP)
	sc.MsgSize, sc.Flows = 16, 20
	sc.KernelCores, sc.AppCores = 10, 5
	return sc
}

// TestDeepLaneFingerprints extends the coalescing oracle to the cells where
// sender lanes run deep or interleave with retransmissions and RTO timers:
// client-bound 16 B × 20 flows, a reliable 16 B sender under the "random"
// chaos plan, and a two-host wire fabric under the same plan. Each must
// fingerprint-equal its MFLOW_NOCOALESCE twin. It also pins the depth the
// lanes save: the deep cell's peak heap stays below one window, which
// fails as soon as pending completions go back into the heap one by one.
func TestDeepLaneFingerprints(t *testing.T) {
	if !sim.CoalescingEnabled() {
		t.Skip("MFLOW_NOCOALESCE is set; the comparison needs the lazy side")
	}
	random := fault.ChaosProfiles()["random"]
	cells := []struct {
		name string
		mk   func() Scenario
	}{
		{"vanilla/16B/20flows", func() Scenario { return deepLaneScenario(steering.Vanilla) }},
		{"mflow/16B/20flows", func() Scenario { return deepLaneScenario(steering.MFlow) }},
		{"mflow/16B/4flows/random", func() Scenario {
			sc := determinismScenario(steering.MFlow, skb.TCP)
			sc.MsgSize, sc.Flows, sc.Faults = 16, 4, random
			return sc
		}},
		{"mflow/wire/fabric-2/random", func() Scenario {
			sc := wireQuick(steering.MFlow, skb.TCP)
			sc.Flows, sc.Faults = 2, random
			sc.Fabric = &fabric.Config{Hosts: 2}
			return sc
		}},
	}
	coalesced := make([]*Result, len(cells))
	for i, c := range cells {
		coalesced[i] = Run(c.mk())
	}
	eager := make([]*Result, len(cells))
	withCoalescingDisabled(func() {
		for i, c := range cells {
			eager[i] = Run(c.mk())
		}
	})
	for i, c := range cells {
		if a, b := coalesced[i].Fingerprint(), eager[i].Fingerprint(); a != b {
			t.Errorf("%s: lane-coalesced run diverged from eager reference:\n--- coalesced ---\n%s\n--- eager ---\n%s",
				c.name, a, b)
		}
		t.Logf("%s: peak heap %d coalesced, %d eager", c.name, coalesced[i].Sched.PeakHeap, eager[i].Sched.PeakHeap)
	}
	const window = 2048 // the TCP window deepLaneScenario leaves at its default
	for i := 0; i < 2; i++ {
		if peak := coalesced[i].Sched.PeakHeap; peak >= window {
			t.Errorf("%s: peak heap %d, want below one window (%d)", cells[i].name, peak, window)
		}
	}
}
