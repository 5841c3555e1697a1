package causal

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// BenchmarkCausalOff pins the cost of the disabled profiler: every hook the
// hot path can reach, called through nil receivers exactly as an unprobed
// run calls them. The benchgate baseline pins this at 0 allocs/op — the
// probes must be free when off.
func BenchmarkCausalOff(b *testing.B) {
	var p *Profiler
	var fr *FlightRecorder
	s := &skb.SKB{PktID: 1, FlowID: 1, Segs: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MarkWait(s, "stage", 10, true, false, 3)
		p.Mark(s, SegService, "stage", 20)
		p.MarkBlame(s, "reassembler", 30, 2)
		p.NoteIdleWake(s)
		p.NoteBatched(s)
		p.MarkServe(s, 40, 50)
		p.Complete(s, 60)
		p.Drop(s, 60, "x")
		p.Absorb(s)
		fr.Trigger("drop-ring", 1, 1, 60)
	}
}

// BenchmarkProfilerComplete pins the enabled profiler's per-packet cost: a
// six-segment timeline (ring-wait, service, queue, service, sock-wait,
// copy) marked and closed, with records recycled through the freelist and
// every segment aggregated. The benchgate baseline pins it at 0 allocs/op
// in steady state.
func BenchmarkProfilerComplete(b *testing.B) {
	p := NewProfiler()
	s := &skb.SKB{FlowID: 1, Segs: 1}
	packet := func(i int) {
		at := sim.Time(i) * 100
		s.PktID, s.ArrivedAt = uint64(i+1), at
		p.MarkWait(s, "driver", at+10, true, false, 0)
		p.Mark(s, SegService, "driver", at+20)
		p.MarkWait(s, "vxlan", at+30, false, false, 0)
		p.Mark(s, SegService, "vxlan", at+40)
		p.MarkServe(s, at+50, at+60)
		p.Complete(s, at+60)
	}
	for i := 0; i < 2*DefaultExemplarsPerFlow; i++ {
		packet(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet(i)
	}
	b.StopTimer()
	if v := p.Violations(); v != 0 {
		b.Fatalf("%d violations: %s", v, p.FirstViolation())
	}
}
