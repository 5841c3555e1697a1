package sim

import (
	"testing"
	"testing/quick"
)

func TestWorkerProcessesFIFO(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var got []int
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(v int, _ Time) {
		got = append(got, v)
	})
	s.At(0, func() {
		for i := 0; i < 200; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	if len(got) != 200 {
		t.Fatalf("processed %d items, want 200", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d processed out of order (got %d)", i, v)
		}
	}
	if w.Processed != 200 {
		t.Errorf("Processed=%d, want 200", w.Processed)
	}
}

func TestWorkerBudgetYields(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(int, Time) {})
	w.Budget = 16
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	// ceil(100/16) = 7 poll rounds
	if w.PollRounds != 7 {
		t.Errorf("PollRounds=%d, want 7", w.PollRounds)
	}
}

func TestWorkerBoundedQueueDrops(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(int, Time) {})
	w.Cap = 50
	accepted := 0
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			if w.Enqueue(i) {
				accepted++
			}
		}
	})
	s.Run()
	if accepted != 50 {
		t.Errorf("accepted %d, want 50", accepted)
	}
	if w.Dropped != 50 {
		t.Errorf("Dropped=%d, want 50", w.Dropped)
	}
}

func TestWorkerWakeDelay(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var doneAt Time
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(_ int, end Time) {
		doneAt = end
	})
	w.WakeDelay = 500
	s.At(100, func() { w.Enqueue(1) })
	s.Run()
	// enqueue at 100, poll at 600, processing 10 -> 610
	if doneAt != 610 {
		t.Errorf("completion at %v, want 610", doneAt)
	}
}

func TestWorkerCompletionTimesSerializeOnCore(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var ends []Time
	w := NewWorker("w", c, s, func(int) Duration { return 100 }, func(_ int, end Time) {
		ends = append(ends, end)
	})
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	for i, e := range ends {
		want := Time(100 * (i + 1))
		if e != want {
			t.Errorf("item %d completed at %v, want %v", i, e, want)
		}
	}
}

func TestTwoWorkersInterleaveOnOneCore(t *testing.T) {
	// Two stages sharing a core must interleave in batches, not run in
	// parallel: total elapsed equals the sum of all work.
	s := NewScheduler(1)
	c := NewCore(1, s)
	var lastEnd Time
	w2 := NewWorker("s2", c, s, func(int) Duration { return 30 }, func(_ int, end Time) {
		if end > lastEnd {
			lastEnd = end
		}
	})
	w1 := NewWorker("s1", c, s, func(int) Duration { return 20 }, func(v int, _ Time) {
		w2.Enqueue(v)
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			w1.Enqueue(i)
		}
	})
	s.Run()
	if want := Time(10*20 + 10*30); lastEnd != want {
		t.Errorf("pipeline finished at %v, want %v (serialized on one core)", lastEnd, want)
	}
}

func TestTwoWorkersOverlapOnTwoCores(t *testing.T) {
	s := NewScheduler(1)
	c1, c2 := NewCore(1, s), NewCore(2, s)
	var lastEnd Time
	w2 := NewWorker("s2", c2, s, func(int) Duration { return 30 }, func(_ int, end Time) {
		if end > lastEnd {
			lastEnd = end
		}
	})
	w2.Budget = 1 // force per-item polls so overlap is visible
	w1 := NewWorker("s1", c1, s, func(int) Duration { return 20 }, func(v int, _ Time) {
		w2.Enqueue(v)
	})
	w1.Budget = 1
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			w1.Enqueue(i)
		}
	})
	s.Run()
	serialized := Time(10*20 + 10*30)
	if lastEnd >= serialized {
		t.Errorf("two-core pipeline finished at %v, want earlier than %v", lastEnd, serialized)
	}
	// Stage-2 core can only start after the first stage-1 completion.
	if lastEnd < Time(20+10*30) {
		t.Errorf("finished impossibly early at %v", lastEnd)
	}
}

func TestWorkerProcessBatchOverride(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	var batches [][]int
	w := &Worker[int]{Name: "b", Core: c, Sched: s, Budget: 8}
	w.ProcessBatch = func(batch []int) {
		cp := append([]int(nil), batch...)
		batches = append(batches, cp)
		c.Exec(Duration(len(batch))*5, "b")
	}
	s.At(0, func() {
		for i := 0; i < 20; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	if len(batches) != 3 { // 8+8+4
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if len(batches[0]) != 8 || len(batches[2]) != 4 {
		t.Errorf("batch sizes %d,%d,%d want 8,8,4", len(batches[0]), len(batches[1]), len(batches[2]))
	}
}

func TestWorkerPollOverheadCharged(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := NewWorker("w", c, s, func(int) Duration { return 10 }, func(int, Time) {})
	w.PollOverhead = 100
	w.Budget = 4
	s.At(0, func() {
		for i := 0; i < 8; i++ {
			w.Enqueue(i)
		}
	})
	s.Run()
	// 2 polls * 100 overhead + 8 items * 10
	if got := c.BusyTotal(); got != 280 {
		t.Errorf("busy %v, want 280", got)
	}
	if c.BusyByTag()["w/poll"] != 200 {
		t.Errorf("poll overhead tag = %v, want 200", c.BusyByTag()["w/poll"])
	}
}

// Property: a worker delivers every accepted item exactly once, in enqueue
// order, regardless of budget and batch pattern.
func TestWorkerDeliveryProperty(t *testing.T) {
	f := func(budget uint8, counts []uint8) bool {
		s := NewScheduler(11)
		c := NewCore(1, s)
		var got []int
		w := NewWorker("w", c, s, func(int) Duration { return 7 }, func(v int, _ Time) {
			got = append(got, v)
		})
		w.Budget = int(budget%32) + 1
		next := 0
		at := Time(0)
		for _, cnt := range counts {
			n := int(cnt % 16)
			at += 50
			start := next
			s.At(at, func() {
				for i := 0; i < n; i++ {
					w.Enqueue(start + i)
				}
			})
			next += n
		}
		s.Run()
		if len(got) != next {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerEnqueueDuringBatch re-enqueues onto a worker from inside its
// own ProcessBatch, which a poll round's batch must survive: the batch is
// a window of the worker's queue buffer, so an enqueue may neither
// overwrite it nor reorder the queue. Every item must be processed once,
// in enqueue order, and a worker whose backlog never drains must settle
// into a buffer it no longer grows.
func TestWorkerEnqueueDuringBatch(t *testing.T) {
	s := NewScheduler(1)
	c := NewCore(1, s)
	w := &Worker[int]{Name: "b", Core: c, Sched: s, Budget: 8}
	next, want, limit := 0, 0, 5000
	w.ProcessBatch = func(batch []int) {
		for _, v := range batch {
			if v != want {
				t.Fatalf("processed %d, want %d", v, want)
			}
			want++
			// Two enqueues per item keep the backlog growing until the
			// limit, so the buffer is full, compacted and regrown while
			// batches are live.
			for k := 0; k < 2 && next < limit; k++ {
				w.Enqueue(next)
				next++
			}
			if batch[0] != want-1-(v-batch[0]) {
				t.Fatalf("batch overwritten while processed")
			}
		}
		c.Exec(Duration(len(batch)), "b")
	}
	for next < 3 {
		w.Enqueue(next)
		next++
	}
	s.Run()
	if want != limit {
		t.Fatalf("processed %d items, want %d", want, limit)
	}
	if w.Len() != 0 || len(w.queue) != 0 || w.head != 0 {
		t.Fatalf("drained worker holds len %d, queue %d, head %d", w.Len(), len(w.queue), w.head)
	}
	if cap(w.queue) > 4*w.MaxDepth {
		t.Fatalf("buffer capacity %d for a peak depth of %d", cap(w.queue), w.MaxDepth)
	}
}

// TestWorkerSteadyBacklogDoesNotAllocate keeps a worker's backlog deeper
// than its budget across poll rounds: once its buffer has grown, neither
// enqueues nor polls may allocate.
func TestWorkerSteadyBacklogDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewScheduler(1)
	c := NewCore(1, s)
	// Processing charges no time, so the worker re-arms one tick after
	// each round and every RunUntil below runs exactly one round.
	w := &Worker[int]{Name: "b", Core: c, Sched: s, Budget: 16}
	w.ProcessBatch = func([]int) {}
	round := func() {
		for i := 0; i < 16; i++ {
			w.Enqueue(i)
		}
		s.RunUntil(s.Now() + 1)
	}
	for i := 0; i < 100; i++ {
		w.Enqueue(i) // a standing backlog of 100 behind every round
	}
	s.RunUntil(0)
	for i := 0; i < 10; i++ {
		round()
	}
	depth := w.Len()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a steady-state round allocates %.1f times", avg)
	}
	if w.Len() != depth || depth < 16 {
		t.Fatalf("backlog %d after the rounds, %d before", w.Len(), depth)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	if cap(w.queue) > 4*w.MaxDepth {
		t.Fatalf("buffer capacity %d for a peak depth of %d", cap(w.queue), w.MaxDepth)
	}
}
