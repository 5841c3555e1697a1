package sim

// LaneLink is the intrusive chain a Lane threads through its entries: each
// entry carries its successor, the successor's fire time and the
// successor's pre-reserved seq in its own words, so a lane of any depth is
// one linked list with no slice and no allocation. The TCP sender's tx
// event embeds the three words directly.
//
// Like RunLink, a link is consumed exactly once: when the entry carrying it
// fires, the lane reads the successor and clears the link before the
// entry's handler runs, so the handler (and any freelist it recycles the
// entry onto) always sees an unlinked item.
type LaneLink interface {
	// NextLane returns the next entry of the lane, its fire time and its
	// reserved seq, or (nil, 0, 0) at the tail. The returned interface
	// must be untyped nil at the tail, never a typed-nil pointer.
	NextLane() (next LaneLink, at Time, seq uint64)
	// SetNextLane links next (firing at, under seq) after this entry;
	// SetNextLane(nil, 0, 0) clears the link.
	SetNextLane(next LaneLink, at Time, seq uint64)
}

// Lane is an intrusive FIFO of one producer's events whose fire times never
// decrease, such as a sender's completions on a FIFO core. Only the lane's
// head is in the pending set; the rest wait in the chain, each under the seq
// reserved when it was appended. When the head fires, its successor enters
// the pending set under that seq before the handler runs, so dispatch
// follows exactly the (at, seq) order of scheduling every entry eagerly.
//
// Unlike a ScheduleRun batch, a lane's entries arrive one at a time and
// other events take seqs in between, so seqs are not contiguous and each
// entry stores its own.
type Lane struct {
	s      *Scheduler
	h      Handler
	tail   LaneLink // last chained entry; nil when the lane is empty
	tailAt Time
}

// NewLane returns an empty lane on s whose entries fire h.Handle(entry, at).
func NewLane(s *Scheduler, h Handler) *Lane {
	return &Lane{s: s, h: h}
}

// laneH is the handler a lane's chained entries are scheduled under: it
// advances the lane, then runs the lane's own handler.
type laneH Lane

// Append schedules x to fire h.Handle(x, at), with At's semantics: a time
// in the past clamps to now, and the entry's seq is taken at this call. An
// entry at or after the lane's tail is chained behind it (deferred until
// its predecessor fires); one earlier than the tail cannot wait behind it
// and is scheduled as a standalone event. With coalescing disabled every
// entry is standalone.
//
// The lane owns x's link from this call until x fires.
func (l *Lane) Append(x LaneLink, at Time) {
	s := l.s
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.stats.Scheduled++
	switch {
	case disableCoalesce || (l.tail != nil && at < l.tailAt):
		e := event{at: at, seq: s.seq, h: l.h, arg: x}
		if !s.trySlot(&e) {
			s.push(e)
		}
		return
	case l.tail == nil:
		e := event{at: at, seq: s.seq, h: (*laneH)(l), arg: x}
		if !s.trySlot(&e) {
			s.push(e)
		}
	default:
		l.tail.SetNextLane(x, at, s.seq)
		s.stats.Coalesced++
		s.deferred++
	}
	l.tail, l.tailAt = x, at
}

// Handle implements Handler for a lane's chained entries: the link is read
// and cleared first (the handler about to run may recycle the entry), the
// successor enters the pending set under its reserved seq, and then the
// lane's handler runs.
func (h *laneH) Handle(arg any, now Time) {
	l := (*Lane)(h)
	x := arg.(LaneLink)
	next, at, seq := x.NextLane()
	if next == nil {
		l.tail = nil
	} else {
		x.SetNextLane(nil, 0, 0)
		s := l.s
		s.deferred--
		e := event{at: at, seq: seq, h: h, arg: next}
		if !s.trySlot(&e) {
			s.push(e)
		}
	}
	l.h.Handle(arg, now)
}
