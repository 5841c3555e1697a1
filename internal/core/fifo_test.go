package core

import (
	"math/rand"
	"testing"

	"mflow/internal/skb"
)

// TestSKBFIFOMatchesSliceQueue drives skbFIFO and a plain pop-from-the-front
// slice queue with the same random pushes and pops: every pop must return
// the same skb, and the live lengths must agree throughout.
func TestSKBFIFOMatchesSliceQueue(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q skbFIFO
		var ref []*skb.SKB
		for step := 0; step < 2000; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				s := &skb.SKB{Seq: uint64(step)}
				q.push(s)
				ref = append(ref, s)
			} else {
				if got, want := q.pop(), ref[0]; got != want {
					t.Fatalf("seed %d step %d: popped seq %d, want %d", seed, step, got.Seq, want.Seq)
				}
				ref = ref[1:]
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, q.len(), len(ref))
			}
		}
	}
}

// TestReassemblerWarmQueuesDoNotAllocate feeds whole micro-flows in
// swapped pairs, so one branch queue buffers a full batch while the other
// drains, and requires a round to allocate nothing once the first rounds
// have warmed the buffer queues.
func TestReassemblerWarmQueuesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const batch = 64
	var next uint64
	r := NewReassembler(2, batch, func(s *skb.SKB) {
		if s.Seq != next {
			t.Fatalf("delivered seq %d, want %d", s.Seq, next)
		}
		next++
	})
	segs := make([]skb.SKB, 2*batch)
	feed := func(mf uint64) {
		start := (mf - 1) * batch
		for j := uint64(0); j < batch; j++ {
			s := &segs[(start+j)%uint64(len(segs))]
			*s = skb.SKB{FlowID: 1, Seq: start + j, Segs: 1, MicroFlow: mf}
			if err := r.Arrive(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	mf := uint64(1)
	round := func() {
		feed(mf + 1) // buffered: its turn has not come
		feed(mf)     // drains both
		mf += 2
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a warm round allocates %.1f times", avg)
	}
	if r.Buffered() != 0 {
		t.Fatalf("%d skbs still buffered", r.Buffered())
	}
}
