package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// arenaEvt has the shape of the TCP sender's tx event: payload pointers, a
// counter, and the three lane-link words a Lane threads through it.
type arenaEvt struct {
	p    *int
	n    uint64
	next *arenaEvt
	at   Time
	seq  uint64
}

func (e *arenaEvt) NextLane() (LaneLink, Time, uint64) {
	if e.next == nil {
		return nil, 0, 0
	}
	return e.next, e.at, e.seq
}

func (e *arenaEvt) SetNextLane(next LaneLink, at Time, seq uint64) {
	if next == nil {
		e.next, e.at, e.seq = nil, 0, 0
		return
	}
	e.next, e.at, e.seq = next.(*arenaEvt), at, seq
}

// slabPutH returns each fired event to its slab, as the sender's completion
// handlers do.
type slabPutH struct{ s *Slab[arenaEvt] }

func (h slabPutH) Handle(arg any, _ Time) { h.s.Put(arg.(*arenaEvt)) }

// checkSlabReset requires Reset's contract: every element of every slab is
// on the free stack exactly once and zeroed, and nothing else is.
func checkSlabReset(t *testing.T, s *Slab[arenaEvt], where string) {
	t.Helper()
	issued := map[*arenaEvt]bool{}
	for i, slab := range s.slabs {
		if i == len(s.slabs)-1 {
			slab = slab[:s.used]
		}
		for j := range slab {
			issued[&slab[j]] = true
		}
	}
	if uint64(len(issued)) != s.Allocs {
		t.Fatalf("%s: slabs hold %d elements, %d were allocated", where, len(issued), s.Allocs)
	}
	seen := map[*arenaEvt]bool{}
	for _, e := range s.free {
		if !issued[e] {
			t.Fatalf("%s: free stack holds an element no slab issued", where)
		}
		if seen[e] {
			t.Fatalf("%s: element on the free stack twice", where)
		}
		seen[e] = true
		if *e != (arenaEvt{}) {
			t.Fatalf("%s: free element not zeroed: %+v", where, *e)
		}
	}
	if len(seen) != len(issued) {
		t.Fatalf("%s: %d of %d elements back on the free stack", where, len(seen), len(issued))
	}
}

// bufBase identifies a buffer by its backing array (nil for no buffer).
func bufBase(b []*int) **int {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}

// checkBufsReset requires QueueBufs.Reset's contract: no worker keeps a
// buffer, no worker is still recorded, and every idle buffer is distinct
// and cleared over its whole capacity.
func checkBufsReset(t *testing.T, b *QueueBufs[*int], ws []*Worker[*int], where string) {
	t.Helper()
	if len(b.lent) != 0 {
		t.Fatalf("%s: %d workers still recorded", where, len(b.lent))
	}
	for i, w := range ws {
		if w.queue != nil || w.head != 0 {
			t.Fatalf("%s: worker %d kept a buffer", where, i)
		}
	}
	seen := map[**int]bool{}
	for _, buf := range b.idle {
		if len(buf) != 0 {
			t.Fatalf("%s: idle buffer has length %d", where, len(buf))
		}
		base := bufBase(buf)
		if base == nil || seen[base] {
			t.Fatalf("%s: idle buffer empty or idle twice", where)
		}
		seen[base] = true
		for _, x := range buf[:cap(buf)] {
			if x != nil {
				t.Fatalf("%s: idle buffer not cleared", where)
			}
		}
	}
}

// checkLent requires that no two workers were lent the same buffer.
func checkLent(t *testing.T, ws []*Worker[*int], where string) {
	t.Helper()
	owner := map[**int]int{}
	for i, w := range ws {
		base := bufBase(w.queue)
		if base == nil {
			continue
		}
		if j, ok := owner[base]; ok {
			t.Fatalf("%s: workers %d and %d share a buffer", where, j, i)
		}
		owner[base] = i
	}
}

// TestRunArenaResetRandomized is the oracle for the run arena's recyclers.
// Each seed drives one Slab and one QueueBufs through several runs in a
// row. A run gets, puts, leaks and lane-links events (part of each lane
// fires and is put back; the rest is still in flight when the run ends),
// and lends buffers to workers that enqueue, poll and are stolen from.
// After each run's Reset, every slab element must be free exactly once and
// zeroed, every buffer back, cleared and idle once, and the next run's
// workers must never share a buffer.
func TestRunArenaResetRandomized(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slab := &Slab[arenaEvt]{}
		bufs := &QueueBufs[*int]{}
		payload := new(int)
		for run := 0; run < 4; run++ {
			where := func(what string) string {
				return fmt.Sprintf("seed %d run %d: %s", seed, run, what)
			}
			s := NewScheduler(uint64(seed))
			core := NewCore(0, s)
			lanes := []*Lane{NewLane(s, slabPutH{slab}), NewLane(s, slabPutH{slab})}
			laneAt := make([]Time, len(lanes))
			ws := make([]*Worker[*int], 1+rng.Intn(5))
			for i := range ws {
				ws[i] = NewWorker("w", core, s, func(*int) Duration { return 1 }, func(*int, Time) {})
				ws[i].Budget = 1 + rng.Intn(8)
				bufs.Lend(ws[i])
			}
			checkLent(t, ws, where("lend"))
			var live []*arenaEvt
			for step := 0; step < 200; step++ {
				op := rng.Intn(7)
				if len(live) == 0 && op <= 3 {
					op = 4
				}
				switch op {
				case 0: // put
					i := rng.Intn(len(live))
					slab.Put(live[i])
					live = append(live[:i], live[i+1:]...)
				case 1: // leak
					i := rng.Intn(len(live))
					live = append(live[:i], live[i+1:]...)
				case 2, 3: // lane-link: the lane owns it until it fires
					i, l := rng.Intn(len(live)), rng.Intn(len(lanes))
					laneAt[l] += Time(rng.Intn(20))
					lanes[l].Append(live[i], laneAt[l])
					live = append(live[:i], live[i+1:]...)
				case 4: // get
					e := slab.Get()
					if *e != (arenaEvt{}) {
						t.Fatalf("%s", where("Get returned a dirty element"))
					}
					e.p, e.n = payload, uint64(step+1)
					live = append(live, e)
				case 5: // enqueue a burst, sometimes steal it back
					w := ws[rng.Intn(len(ws))]
					for k := rng.Intn(40); k > 0; k-- {
						w.Enqueue(payload)
					}
					if rng.Intn(4) == 0 {
						ws[rng.Intn(len(ws))].StealQueue()
					}
				case 6: // run part of the horizon: lanes fire, workers poll
					s.RunUntil(s.Now() + Time(rng.Intn(30)))
				}
			}
			slab.Reset()
			bufs.Reset()
			checkSlabReset(t, slab, where("slab"))
			checkBufsReset(t, bufs, ws, where("bufs"))
			allocs := slab.Allocs
			for n := slab.Free(); n > 0; n-- {
				if e := slab.Get(); *e != (arenaEvt{}) {
					t.Fatalf("%s", where("Get after Reset returned a dirty element"))
				}
			}
			if slab.Allocs != allocs {
				t.Fatalf("%s", where("draining the reset free stack allocated"))
			}
			slab.Reset()
		}
	}
}

// TestQueueBufsDropsOversizedBuffers pins the retention bound: Reset keeps
// a buffer up to maxIdleBuf and lets a larger one go.
func TestQueueBufsDropsOversizedBuffers(t *testing.T) {
	for _, depth := range []int{maxIdleBuf / 2, 2 * maxIdleBuf} {
		s := NewScheduler(1)
		w := NewWorker("w", NewCore(0, s), s, func(*int) Duration { return 1 }, func(*int, Time) {})
		b := &QueueBufs[*int]{}
		b.Lend(w)
		for i := 0; i < depth; i++ {
			w.Enqueue(new(int))
		}
		b.Reset()
		if keep := depth <= maxIdleBuf; (b.Idle() == 1) != keep {
			t.Errorf("depth %d: %d idle buffers after Reset, want kept=%v", depth, b.Idle(), keep)
		}
	}
}
