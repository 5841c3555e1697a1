package overlay

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// Edge-case and failure-injection coverage for the topology builder and
// runner beyond the happy paths the shape tests exercise.

func TestMFlowOnTinyCorePool(t *testing.T) {
	// Fewer kernel cores than MFLOW's preferred width: offsets wrap onto
	// shared cores; the run must still be correct (ordered, lossless).
	sc := quick(steering.MFlow, skb.TCP)
	sc.KernelCores = 2
	r := Run(sc)
	if r.Gbps <= 0 {
		t.Fatal("no throughput with 2 kernel cores")
	}
	if r.TCPOFOSegments != 0 {
		t.Errorf("ordering broke on wrapped cores: ofo=%d", r.TCPOFOSegments)
	}
	if r.DropsRing+r.DropsBacklog+r.DropsSock != 0 {
		t.Error("TCP must stay lossless even on a tiny pool")
	}
}

func TestSingleKernelCoreDegenerate(t *testing.T) {
	// Everything on one kernel core: every system degenerates towards
	// vanilla; MFLOW must not be pathologically worse (its overheads are
	// bounded).
	v := quick(steering.Vanilla, skb.TCP)
	v.KernelCores = 1
	m := quick(steering.MFlow, skb.TCP)
	m.KernelCores = 1
	rv, rm := Run(v), Run(m)
	if rm.Gbps < rv.Gbps*0.6 {
		t.Errorf("MFLOW on 1 core (%.1f) collapsed vs vanilla (%.1f)", rm.Gbps, rv.Gbps)
	}
}

func TestUDPHeavyLossStress(t *testing.T) {
	// Failure injection: shrink every queue so the UDP path sheds hard;
	// the reassembler must ride through the gaps (AllowGaps/stale paths)
	// without stalling or panicking, and still deliver.
	costs := DefaultCosts()
	costs.NIC.RingSize = 64
	sc := quick(steering.MFlow, skb.UDP)
	sc.Costs = costs
	r := Run(sc)
	if r.DropsRing == 0 {
		t.Error("tiny ring should overrun under three blasting clients")
	}
	if r.Gbps <= 0 {
		t.Error("deliveries must continue despite loss")
	}
}

func TestSlowSplittingCoreStillOrdered(t *testing.T) {
	// One splitting core at half speed: massive cross-branch skew, yet
	// delivery order must be perfectly restored for TCP.
	sc := quick(steering.MFlow, skb.TCP)
	sc.Measure = 4 * sim.Millisecond
	h := buildHost(sc.withDefaults(), Probes{}, newPool())
	// Kernel cores start after the app cores; slow one splitting core.
	h.cores[sc.withDefaults().AppCores+2].Speed = 0.5
	res := h.run()
	if res.TCPOFOSegments != 0 {
		t.Errorf("skewed cores leaked reordering to TCP: %d", res.TCPOFOSegments)
	}
	if res.OOOSKBs == 0 {
		t.Error("half-speed branch should produce merge-point reordering")
	}
}

func TestManyFlowsFewCores(t *testing.T) {
	sc := Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 4096,
		Flows: 12, KernelCores: 3, AppCores: 2,
		Warmup: 1 * sim.Millisecond, Measure: 3 * sim.Millisecond,
	}
	r := Run(sc)
	if r.Gbps <= 0 || r.TCPOFOSegments != 0 {
		t.Errorf("12 flows on 3 cores: gbps=%.2f ofo=%d", r.Gbps, r.TCPOFOSegments)
	}
}

func TestFalconClassesPartition(t *testing.T) {
	for _, k := range []int{3, 4, 6, 10, 16} {
		plan := steering.PlanFor(steering.FalconDev, skb.TCP)
		starts, sizes := falconClasses(plan, k)
		if len(starts) != len(plan.Groups) {
			t.Fatalf("k=%d: wrong class count", k)
		}
		total := 0
		for i, sz := range sizes {
			if sz < 1 {
				t.Errorf("k=%d: class %d empty", k, i)
			}
			if starts[i] != total {
				t.Errorf("k=%d: class %d start %d, want %d", k, i, starts[i], total)
			}
			total += sz
		}
		// The VxLAN class is always exactly one core (host-wide device).
		for i, g := range plan.Groups {
			for _, stg := range g.Stages {
				if stg == steering.StageVXLAN && sizes[i] != 1 {
					t.Errorf("k=%d: vxlan class has %d cores", k, sizes[i])
				}
			}
		}
	}
}

func TestBaseForRegimes(t *testing.T) {
	sc := quick(steering.Vanilla, skb.TCP).withDefaults()
	sc.Flows = 8
	sc.SharedQueue = true
	h := &host{sc: sc}
	for f := 0; f < 8; f++ {
		if h.baseFor(f, true) != 0 {
			t.Fatal("shared queue must pin overlay flows to base 0")
		}
	}
	sc2 := sc
	sc2.SharedQueue = false
	h2 := &host{sc: sc2}
	seen := map[int]bool{}
	for f := 0; f < 8; f++ {
		b := h2.baseFor(f, true)
		if b < 0 || b >= sc2.KernelCores {
			t.Fatalf("base %d out of range", b)
		}
		seen[b] = true
	}
	if len(seen) < 2 {
		t.Error("hashing should spread flows over multiple cores")
	}
}

func TestZeroTrafficStackIdle(t *testing.T) {
	st := NewStack(Scenario{System: steering.Vanilla, Proto: skb.TCP, Flows: 2})
	st.Sched().RunUntil(sim.Time(2 * sim.Millisecond))
	if st.DeliveredBytes(0)+st.DeliveredBytes(1) != 0 {
		t.Error("stack without traffic delivered bytes")
	}
}

func TestCostModelIsolation(t *testing.T) {
	// Scenarios must not mutate the shared default cost table.
	a := DefaultCosts()
	Run(quick(steering.MFlow, skb.UDP))
	b := DefaultCosts()
	if *a != *b {
		t.Error("DefaultCosts drifted across runs")
	}
}

func TestAutoDetectPromotesElephantFlow(t *testing.T) {
	// Three blasting UDP clients: far above the default 1 Gbps threshold;
	// the detector must promote the flow and splitting must engage.
	sc := quick(steering.MFlow, skb.UDP)
	sc.MFlow.AutoDetect = true
	h := buildHost(sc.withDefaults(), Probes{}, newPool())
	res := h.run()
	fp := h.flows[0]
	if fp.detect == nil || !fp.detect.IsElephant(fp.id) {
		t.Fatal("elephant flow not promoted")
	}
	if res.OOOSKBs == 0 {
		t.Error("promoted flow should actually split (merge-point reordering expected)")
	}
	// Splitting performance must be in the same league as forced splitting.
	forced := Run(quick(steering.MFlow, skb.UDP))
	if res.Gbps < 0.85*forced.Gbps {
		t.Errorf("auto-detected throughput %.2f lags forced splitting %.2f", res.Gbps, forced.Gbps)
	}
}

func TestAutoDetectLeavesMiceUnsplit(t *testing.T) {
	// Raise the threshold above the offered rate: the flow stays a mouse
	// and every micro-flow routes to branch zero — no reordering at all.
	sc := quick(steering.MFlow, skb.UDP)
	sc.MFlow.AutoDetect = true
	sc.MFlow.ElephantBps = 50e9
	h := buildHost(sc.withDefaults(), Probes{}, newPool())
	res := h.run()
	fp := h.flows[0]
	if fp.detect.IsElephant(fp.id) {
		t.Fatal("flow promoted despite 50 Gbps threshold")
	}
	if fp.split.MiceMicroFlows == 0 {
		t.Error("gate never routed mice micro-flows")
	}
	if res.OOOSKBs != 0 {
		t.Errorf("unsplit mouse produced %d merge-point reorderings", res.OOOSKBs)
	}
	if res.DeliveredOutOfOrder != 0 {
		t.Errorf("mouse datagrams delivered out of order: %d", res.DeliveredOutOfOrder)
	}
}

func TestAutoDetectTCPStaysOrdered(t *testing.T) {
	sc := quick(steering.MFlow, skb.TCP)
	sc.MFlow.AutoDetect = true
	res := Run(sc)
	if res.TCPOFOSegments != 0 {
		t.Errorf("auto-detect leaked reordering into TCP: %d", res.TCPOFOSegments)
	}
	if res.Gbps <= 0 {
		t.Fatal("no throughput")
	}
	// A saturating TCP elephant should be promoted and split: it must
	// land well above the unsplit (vanilla-ish) ceiling.
	van := Run(quick(steering.Vanilla, skb.TCP))
	if res.Gbps < 1.2*van.Gbps {
		t.Errorf("auto-detected TCP (%.1f) did not benefit from splitting (vanilla %.1f)", res.Gbps, van.Gbps)
	}
}

func TestModelTXPreservesShape(t *testing.T) {
	// The explicit sender pipeline must preserve the headline shape:
	// MFLOW still beats vanilla, and 64KB TCP throughput stays in the
	// same league as the aggregate client-cost model.
	base := Run(quick(steering.MFlow, skb.TCP))
	tx := quick(steering.MFlow, skb.TCP)
	tx.ModelTX = true
	withTX := Run(tx)
	if withTX.Gbps < 0.7*base.Gbps || withTX.Gbps > 1.3*base.Gbps {
		t.Errorf("ModelTX shifted MFLOW TCP from %.1f to %.1f Gbps", base.Gbps, withTX.Gbps)
	}
	v := quick(steering.Vanilla, skb.TCP)
	v.ModelTX = true
	rv := Run(v)
	if !(withTX.Gbps > rv.Gbps) {
		t.Errorf("with ModelTX, MFLOW (%.1f) must still beat vanilla (%.1f)", withTX.Gbps, rv.Gbps)
	}
	if withTX.TCPOFOSegments != 0 {
		t.Errorf("TX pipeline must not reorder: ofo=%d", withTX.TCPOFOSegments)
	}
}

func TestModelTXSenderBoundSmallMessages(t *testing.T) {
	// Paper: at 16B the client/sender is the bottleneck. With the
	// explicit TX pipeline the sender-side socket path should dominate.
	sc := quick(steering.MFlow, skb.TCP)
	sc.MsgSize = 16
	sc.ModelTX = true
	r := Run(sc)
	if r.MsgPerSec <= 0 {
		t.Fatal("no messages delivered")
	}
	// No receiver kernel core may be anywhere near saturation: the
	// sender is the limiter.
	for _, c := range r.CPU[1:] {
		if c.Total > 0.90 {
			t.Errorf("receiver core %d at %.0f%% — expected sender-bound regime", c.Core, c.Total*100)
		}
	}
}
