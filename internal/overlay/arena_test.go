package overlay

import (
	"runtime"
	"testing"

	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestWarmRunAllocBudget pins what the run arena saves: a 20-flow 16 B
// MFLOW TCP run (the tcp-multiflow benchmark cell with the most segments in
// flight) repeated on a warm arena must allocate under a fixed budget per
// delivered segment. Measured: 31.0 B/seg with the arena (its deepest
// queues outgrow what the arena keeps idle and regrow every run), 122.9 B/seg
// when every run regrew its tx events and queue buffers from empty.
func TestWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 60.0 // bytes per delivered segment, ~2x the measured value
	sc := Scenario{
		System: steering.MFlow, Proto: skb.TCP, MsgSize: 16, Flows: 20,
		KernelCores: 10, AppCores: 5, Seed: 1,
	}
	Run(sc) // warm the arena the next run draws
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(sc)
	runtime.ReadMemStats(&after)
	if r.DeliveredSegments == 0 {
		t.Fatal("no segment delivered")
	}
	perSeg := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.DeliveredSegments)
	if perSeg > budget {
		t.Errorf("warm run allocated %.1f B per delivered segment, budget %.0f", perSeg, budget)
	}
}
