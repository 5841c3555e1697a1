package sim

import "testing"

// laneLink is the test lane entry: a minimal LaneLink carrying an id so
// dispatch order can be asserted.
type laneLink struct {
	id   int
	next *laneLink
	at   Time
	seq  uint64
}

func (l *laneLink) NextLane() (LaneLink, Time, uint64) {
	if l.next == nil {
		return nil, 0, 0
	}
	return l.next, l.at, l.seq
}

func (l *laneLink) SetNextLane(next LaneLink, at Time, seq uint64) {
	if next == nil {
		l.next, l.at, l.seq = nil, 0, 0
		return
	}
	l.next, l.at, l.seq = next.(*laneLink), at, seq
}

// laneScript drives one scheduler through a mixed workload: two lanes whose
// entries tie with each other and with plain events at one instant, an
// append from inside a lane handler, a non-monotone append, and a
// partial-horizon RunUntil. It returns the dispatch log, the Pending count
// at the horizon, and the final clock.
func laneScript() (ids []int, times []Time, pend int, now Time) {
	s := NewScheduler(1)
	h := &logH{}
	a := NewLane(s, h)
	var b *Lane
	b = NewLane(s, &funcH{fn: func(arg any, now Time) {
		h.Handle(arg, now)
		if arg.(*laneLink).id == 21 {
			// Appended from a lane handler; earlier than b's tail (24
			// at 30), so standalone, and tied with lane a's entry 4.
			b.Append(&laneLink{id: 23}, 12)
		}
	}})
	a.Append(&laneLink{id: 1}, 10)
	s.AtHandler(10, h, 100) // ties at 10 between lane a's 1 and 2
	a.Append(&laneLink{id: 2}, 10)
	b.Append(&laneLink{id: 21}, 10)
	a.Append(&laneLink{id: 3}, 12)
	s.AtHandler(12, h, 101)
	b.Append(&laneLink{id: 22}, 11)
	a.Append(&laneLink{id: 4}, 12)
	a.Append(&laneLink{id: 5}, 11) // before a's tail at 12: standalone
	a.Append(&laneLink{id: 6}, 20)
	b.Append(&laneLink{id: 24}, 30)
	s.RunUntil(11)
	pend = s.Pending()
	now = s.RunUntil(100)
	return h.ids, h.times, pend, now
}

// TestLaneMatchesEager pins the lane's core claim: dispatch order, fire
// times, Pending and the final clock are those of scheduling every entry
// eagerly, including ties at one instant.
func TestLaneMatchesEager(t *testing.T) {
	var lazyIDs, eagerIDs []int
	var lazyTimes, eagerTimes []Time
	var lazyPend, eagerPend int
	var lazyNow, eagerNow Time
	withCoalescing(true, func() { lazyIDs, lazyTimes, lazyPend, lazyNow = laneScript() })
	withCoalescing(false, func() { eagerIDs, eagerTimes, eagerPend, eagerNow = laneScript() })

	if len(lazyIDs) != len(eagerIDs) {
		t.Fatalf("dispatch counts differ: lane %v eager %v", lazyIDs, eagerIDs)
	}
	for i := range lazyIDs {
		if lazyIDs[i] != eagerIDs[i] || lazyTimes[i] != eagerTimes[i] {
			t.Fatalf("dispatch %d differs: lane (%d,%d) eager (%d,%d)",
				i, lazyIDs[i], lazyTimes[i], eagerIDs[i], eagerTimes[i])
		}
	}
	if lazyPend != eagerPend || lazyNow != eagerNow {
		t.Fatalf("lane Pending %d clock %d, eager Pending %d clock %d",
			lazyPend, lazyNow, eagerPend, eagerNow)
	}
	// The documented (at, seq) order: appends take their seq at the call.
	want := []int{1, 100, 2, 21, 22, 5, 3, 101, 4, 23, 6, 24}
	if len(lazyIDs) != len(want) {
		t.Fatalf("dispatch order %v, want %v", lazyIDs, want)
	}
	for i, id := range want {
		if lazyIDs[i] != id {
			t.Fatalf("dispatch order %v, want %v", lazyIDs, want)
		}
	}
}

// TestLanePending pins exact Pending accounting: every appended entry
// counts, whether it is in the heap or deferred behind the lane's head.
func TestLanePending(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	l := NewLane(s, h)
	for i := 0; i < 5; i++ {
		l.Append(&laneLink{id: i}, Time(10*(i+1)))
		if got := s.Pending(); got != i+1 {
			t.Fatalf("Pending after %d appends = %d, want %d", i+1, got, i+1)
		}
	}
	for i, horizon := range []Time{10, 25, 40, 50} {
		s.RunUntil(horizon)
		want := []int{4, 3, 1, 0}[i]
		if got := s.Pending(); got != want {
			t.Fatalf("Pending at %d = %d, want %d", horizon, got, want)
		}
	}
	st := s.Stats()
	if st.Scheduled != 5 || st.Coalesced != 4 {
		t.Fatalf("Scheduled %d Coalesced %d, want 5 and 4", st.Scheduled, st.Coalesced)
	}
	if st.PeakHeap > 1 {
		t.Fatalf("PeakHeap = %d: a lane keeps only its head pending", st.PeakHeap)
	}
}

// TestLaneStopMidLane verifies Stop from a lane handler leaves the rest of
// the lane pending and resumable, and that appends made while the lane is
// parked chain behind it.
func TestLaneStopMidLane(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	l := NewLane(s, &funcH{fn: func(arg any, now Time) {
		h.Handle(arg, now)
		s.Stop()
	}})
	for i := 1; i <= 3; i++ {
		l.Append(&laneLink{id: i}, Time(5*i))
	}
	if got := s.RunUntil(100); got != 5 {
		t.Fatalf("stopped clock = %d, want 5", got)
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after stop = %d, want 2", got)
	}
	l.Append(&laneLink{id: 4}, 15) // ties with the deferred tail
	for i := 0; i < 3; i++ {
		s.RunUntil(100)
	}
	want := []int{1, 2, 3, 4}
	if len(h.ids) != len(want) {
		t.Fatalf("dispatched %v, want %v", h.ids, want)
	}
	for i := range want {
		if h.ids[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", h.ids, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", s.Pending())
	}
}

// TestLaneHorizonMidLane verifies RunUntil parks at a horizon that falls
// inside a lane, and the lane's later entries fire on resume.
func TestLaneHorizonMidLane(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	l := NewLane(s, h)
	l.Append(&laneLink{id: 1}, 5)
	l.Append(&laneLink{id: 2}, 20)
	l.Append(&laneLink{id: 3}, 20)
	if got := s.RunUntil(10); got != 10 {
		t.Fatalf("horizon park = %d, want 10", got)
	}
	if len(h.ids) != 1 || h.ids[0] != 1 || s.Pending() != 2 {
		t.Fatalf("before horizon: dispatched %v, Pending %d; want [1] and 2", h.ids, s.Pending())
	}
	if got := s.RunUntil(30); got != 20 {
		t.Fatalf("drained clock = %d, want 20 (parked at last event)", got)
	}
	if len(h.ids) != 3 || h.ids[1] != 2 || h.ids[2] != 3 {
		t.Fatalf("dispatched %v, want [1 2 3]", h.ids)
	}
}

// TestLaneNonMonotoneFallback verifies an append earlier than the lane's
// tail is scheduled standalone: it fires at its own time, ahead of the
// deferred entries, and the lane keeps its tail.
func TestLaneNonMonotoneFallback(t *testing.T) {
	s := NewScheduler(1)
	h := &logH{}
	l := NewLane(s, h)
	l.Append(&laneLink{id: 1}, 10)
	l.Append(&laneLink{id: 2}, 30)
	l.Append(&laneLink{id: 3}, 20) // earlier than tail 30
	l.Append(&laneLink{id: 4}, 30) // chains behind 2, not 3
	if st := s.Stats(); st.Coalesced != 2 {
		t.Fatalf("Coalesced = %d, want 2 (entries 2 and 4)", st.Coalesced)
	}
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	s.Run()
	want := []int{1, 3, 2, 4}
	wantAt := []Time{10, 20, 30, 30}
	for i := range want {
		if h.ids[i] != want[i] || h.times[i] != wantAt[i] {
			t.Fatalf("dispatched %v at %v, want %v at %v", h.ids, h.times, want, wantAt)
		}
	}
	// The lane emptied when its tail fired: a new append heads it again.
	l.Append(&laneLink{id: 5}, 5)
	s.Run()
	if h.ids[4] != 5 || h.times[4] != 30 {
		t.Fatalf("append after drain fired (%d,%d), want (5,30) clamped", h.ids[4], h.times[4])
	}
}

// TestLaneAppendDoesNotAllocate pins the zero-allocation contract: once the
// heap slice has grown, appending to a lane and draining it allocates
// nothing, whatever the lane's depth.
func TestLaneAppendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	s := NewScheduler(1)
	l := NewLane(s, &nopHandler{})
	var links [64]laneLink
	avg := testing.AllocsPerRun(100, func() {
		now := s.Now()
		for i := range links {
			l.Append(&links[i], now.Add(Duration(i)))
		}
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("Lane.Append+drain allocates %.1f/op, want 0", avg)
	}
}
