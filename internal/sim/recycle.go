package sim

// This file holds the two run-scoped recyclers a finished run hands to the
// next one: Slab, for fixed-shape per-event carriers, and QueueBufs, for
// workers' queue backing buffers. Both follow the skb pool's rule: Reset is
// valid only once the run that used the recycler is over and its scheduler
// will never run again, and Reset takes back everything the recycler ever
// handed out, whether the run gave it back or still held it.

// slabLen is how many elements a Slab allocates at once.
const slabLen = 256

// Slab hands out *T from slabs it allocates slabLen elements at a time and
// recycles them through a free stack. The slabs are the record of every
// element handed out, so Reset can return each one to the free stack
// exactly once, zeroed, even when the run that used the slab still held it.
//
// A Slab serves one run at a time. A nil *Slab disables recycling: Get
// allocates and Put drops.
type Slab[T any] struct {
	free  []*T
	slabs [][]T
	used  int // elements handed out of the last slab
	// Allocs counts elements handed out that the free stack could not
	// supply (fresh slab elements).
	Allocs uint64
}

// Get returns a zeroed element.
func (s *Slab[T]) Get() *T {
	if s == nil {
		return new(T)
	}
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	s.Allocs++
	if len(s.slabs) == 0 || s.used == slabLen {
		s.slabs = append(s.slabs, make([]T, slabLen))
		s.used = 0
	}
	e := &s.slabs[len(s.slabs)-1][s.used]
	s.used++
	return e
}

// Put zeroes e and makes it available to Get. The caller must hold no
// other reference to it, and must Put each element it got at most once.
func (s *Slab[T]) Put(e *T) {
	if s == nil {
		return
	}
	var zero T
	*e = zero
	s.free = append(s.free, e)
}

// Reset zeroes every element the slab ever handed out and puts each on the
// free stack exactly once, in flight or not.
func (s *Slab[T]) Reset() {
	if s == nil {
		return
	}
	clear(s.free)
	s.free = s.free[:0]
	var zero T
	for i, slab := range s.slabs {
		if i == len(s.slabs)-1 {
			slab = slab[:s.used]
		}
		for j := range slab {
			slab[j] = zero
			s.free = append(s.free, &slab[j])
		}
	}
}

// Free returns the number of elements Get can hand out without a fresh
// allocation.
func (s *Slab[T]) Free() int {
	if s == nil {
		return 0
	}
	return len(s.free)
}

// QueueBufs lends queue backing buffers to workers and takes them back when
// their run is over, so a run's workers start with the buffers an earlier
// run grew instead of regrowing them from empty. It records every worker it
// lent to; Reset takes back that worker's current queue buffer (grown or
// not), clears it and makes it idle, unless it is larger than
// maxIdleBuf.
//
// A QueueBufs serves one run at a time. A nil *QueueBufs lends nothing.
type QueueBufs[T any] struct {
	idle [][]T
	lent []*Worker[T]
}

// maxIdleBuf is the largest buffer capacity QueueBufs keeps idle. Idle
// buffers are pointer-dense memory that every garbage collection between
// runs must scan; the few very deep queues (a full TCP window on one
// socket) are left to regrow, which keeps most of the allocation saving for
// a fraction of the retained memory. In the TCP multi-flow benchmark
// matrix, keeping every buffer made topology construction between runs 17% slower
// and saved 4.4 B of allocation per segment more than this bound does.
const maxIdleBuf = 2048

// Lend gives w an idle buffer for its queue (none when none is idle) and
// records w for Reset. w must be empty and unlent.
func (b *QueueBufs[T]) Lend(w *Worker[T]) {
	if b == nil {
		return
	}
	if n := len(b.idle); n > 0 {
		w.queue, w.head = b.idle[n-1], 0
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
	}
	b.lent = append(b.lent, w)
}

// Reset takes the buffer back from every worker lent to and forgets the
// workers. The workers are left with no buffer. Buffers go back in reverse
// lending order, so a run built like the last one lends each worker the
// buffer its counterpart grew.
func (b *QueueBufs[T]) Reset() {
	if b == nil {
		return
	}
	for i := len(b.lent) - 1; i >= 0; i-- {
		w := b.lent[i]
		if buf := w.queue[:cap(w.queue)]; len(buf) > 0 && len(buf) <= maxIdleBuf {
			clear(buf)
			b.idle = append(b.idle, buf[:0])
		}
		w.queue, w.head = nil, 0
		b.lent[i] = nil
	}
	b.lent = b.lent[:0]
}

// Idle returns the number of buffers waiting to be lent.
func (b *QueueBufs[T]) Idle() int {
	if b == nil {
		return 0
	}
	return len(b.idle)
}
