// Package causal is the per-packet critical-path profiler: it decomposes
// each skb's end-to-end latency into exclusive wall-clock segments — NIC
// ring wait, per-stage queueing vs. service, steering/IPI handoff cost, GRO
// hold, reassembler reorder-wait (with blame attributed to the packet whose
// arrival filled the hole), socket backlog wait, and delivery copy — and
// checks conservation: a packet's segments tile [ArrivedAt, delivered]
// exactly, so they sum to its end-to-end latency with zero residual
// (simulated time is integer nanoseconds; the check is exact, not
// approximate).
//
// The profiler is an observation layer only: it never schedules events,
// charges cores, or mutates skbs beyond the skb.CP record slot, so a probed
// run produces byte-identical results to an unprobed one. All methods
// tolerate a nil receiver — call sites gate on a single nil check and the
// disabled path costs nothing else (pinned by BenchmarkCausalOff).
package causal

import (
	"fmt"
	"sort"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// SegKind classifies one exclusive latency segment.
type SegKind uint8

// The segment taxonomy (DESIGN.md §9). Every nanosecond of a packet's
// in-stack lifetime belongs to exactly one kind.
const (
	// SegRingWait is time parked in the NIC descriptor ring before the
	// driver softirq first touched the frame (IRQ delay + NAPI backlog).
	SegRingWait SegKind = iota
	// SegQueue is time waiting in a softirq/backlog queue for the stage's
	// core, after any handoff latency has been split off.
	SegQueue
	// SegService is time the packet itself was being processed on a core
	// (device costs, per-stage work).
	SegService
	// SegHandoff is cross-core steering latency: the IPI/softirq-raise
	// window between an enqueue that woke an idle worker and the poll
	// becoming runnable, plus FALCON's explicit per-skb pipeline handoff.
	SegHandoff
	// SegGROHold is time a packet already on a core waited inside a GRO
	// batch for coalescing to finish before phase-2 processing.
	SegGROHold
	// SegReorderWait is time parked behind a missing predecessor — in the
	// MFLOW reassembler or the TCP OFO queue. Blame carries the packet id
	// whose arrival released it (0: a gap-timeout or flush did).
	SegReorderWait
	// SegSockWait is time in the socket receive backlog before the
	// delivery-copy worker served the packet.
	SegSockWait
	// SegCopy is the socket delivery copy (for MFLOW TCP this includes
	// the TCP processing folded into the copy thread's cost).
	SegCopy
	// SegOther is the residual closing a timeline whose final event is
	// not an instrumented boundary (kept so conservation always holds).
	SegOther
)

// String names the segment kind as rendered in breakdown tables.
func (k SegKind) String() string {
	switch k {
	case SegRingWait:
		return "ring-wait"
	case SegQueue:
		return "queue"
	case SegService:
		return "service"
	case SegHandoff:
		return "handoff"
	case SegGROHold:
		return "gro-hold"
	case SegReorderWait:
		return "reorder-wait"
	case SegSockWait:
		return "sock-wait"
	case SegCopy:
		return "copy"
	case SegOther:
		return "other"
	}
	return fmt.Sprintf("seg(%d)", int(k))
}

// Segment is one exclusive interval of a packet's timeline.
type Segment struct {
	Kind  SegKind
	Stage string
	Start sim.Time
	End   sim.Time
	// Blame, for SegReorderWait, is the packet id whose arrival released
	// the wait (the hole's filler); 0 means no single packet — a
	// gap-timeout or end-of-run flush did.
	Blame uint64
}

// Dur returns the segment's length.
func (s Segment) Dur() sim.Duration { return s.End.Sub(s.Start) }

// Outcome is how a packet record was closed.
type Outcome uint8

// Record outcomes.
const (
	// Delivered: the packet reached userspace (the socket tap).
	Delivered Outcome = iota
	// Absorbed: GRO merged the packet into a preceding super-packet; its
	// remaining lifetime is accounted on the absorbing head.
	Absorbed
	// Dropped: an admission queue, the wire, or a discard path ate it.
	Dropped
)

// Rec is one packet's attribution record. It lives in skb.CP while the
// packet is in flight and is recycled through the profiler's freelist once
// closed (unless retained as a tail exemplar).
type Rec struct {
	// Pkt is the NIC arrival id the record is keyed on — pool reuse is
	// detected by comparing it against skb.PktID, never by pointer.
	Pkt  uint64
	Flow uint64
	Seq  uint64
	Segs int

	Arrived sim.Time
	Done    sim.Time
	Outcome Outcome
	// Where names the drop point when Outcome == Dropped.
	Where string

	// Timeline is the exclusive segment decomposition; segments are
	// contiguous and tile [Arrived, Done] exactly.
	Timeline []Segment

	// last is the attribution cursor: everything before it is already
	// classified. Marks extend it monotonically.
	last sim.Time
	// wake notes that the most recent enqueue woke an idle worker, so the
	// head of the next wait is handoff (IPI/softirq raise), not queueing.
	wake bool
	// batched notes the packet finished a stage's phase-1 work and is
	// held inside the poll batch (GRO coalescing window).
	batched bool
}

// E2E returns the packet's end-to-end in-stack latency.
func (r *Rec) E2E() sim.Duration { return r.Done.Sub(r.Arrived) }

// KindStat is one (segment kind, stage) aggregate of a run's breakdown.
type KindStat struct {
	Kind  SegKind
	Stage string
	// Count is the number of segments aggregated; Total their summed
	// duration; Max the longest single segment.
	Count uint64
	Total sim.Duration
	Max   sim.Duration
}

type aggKey struct {
	kind  SegKind
	stage string
}

// DefaultExemplarsPerFlow is how many slowest-packet timelines each flow
// retains when Profiler.ExemplarsPerFlow is unset.
const DefaultExemplarsPerFlow = 3

// Profiler accumulates per-packet attribution for one run. It is not safe
// for concurrent use (the simulator is single-goroutine per run) and must
// not be shared across runs whose packet ids restart.
type Profiler struct {
	// ExemplarsPerFlow is the k of tail-exemplar capture: the k slowest
	// delivered packets per flow keep their full timelines (<= 0 means
	// DefaultExemplarsPerFlow).
	ExemplarsPerFlow int
	// OnComplete, if set, observes every delivered packet's closed record
	// before aggregation (the conservation property test re-sums there).
	// The record is only valid for the duration of the call.
	OnComplete func(*Rec)

	// DeliveredPkts / AbsorbedPkts / DroppedPkts count closed records by
	// outcome; SumE2E totals delivered end-to-end latency.
	DeliveredPkts uint64
	AbsorbedPkts  uint64
	DroppedPkts   uint64
	SumE2E        sim.Duration

	agg map[aggKey]*KindStat
	// aggHint[i] is the aggregate segment i of the previous timeline
	// landed in. Timelines repeat their (kind, stage) sequence, so most
	// segments find their aggregate here without hashing the key.
	aggHint   []*KindStat
	exemplars map[uint64][]*Rec

	violations     uint64
	firstViolation string

	free []*Rec
}

// NewProfiler returns a profiler with defaults.
func NewProfiler() *Profiler { return &Profiler{} }

// violate records a conservation/monotonicity violation. Violations mean an
// instrumentation bug, never a property of the simulated workload; tests
// assert the count stays zero.
func (p *Profiler) violate(format string, args ...any) {
	p.violations++
	if p.firstViolation == "" {
		p.firstViolation = fmt.Sprintf(format, args...)
	}
}

// Violations returns the number of attribution violations observed.
func (p *Profiler) Violations() uint64 {
	if p == nil {
		return 0
	}
	return p.violations
}

// FirstViolation describes the first violation ("" if none).
func (p *Profiler) FirstViolation() string {
	if p == nil {
		return ""
	}
	return p.firstViolation
}

// getRec pops a recycled record or allocates one.
func (p *Profiler) getRec() *Rec {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		tl := r.Timeline[:0]
		*r = Rec{Timeline: tl}
		return r
	}
	return &Rec{}
}

// recycle returns a closed record to the freelist.
func (p *Profiler) recycle(r *Rec) { p.free = append(p.free, r) }

// rec returns the packet's live record, creating one anchored at ArrivedAt
// on first touch. A record keyed to a different PktID (skb pool aliasing —
// a component retained the skb past a terminal Put) is a violation; the
// stale record is abandoned and a fresh one started.
func (p *Profiler) rec(s *skb.SKB) *Rec {
	if r, ok := s.CP.(*Rec); ok {
		if r.Pkt == s.PktID {
			return r
		}
		p.violate("pkt %d inherited record of pkt %d (skb pool aliasing)", s.PktID, r.Pkt)
	}
	r := p.getRec()
	r.Pkt, r.Flow, r.Seq, r.Segs = s.PktID, s.FlowID, s.Seq, s.Segs
	r.Arrived, r.last = s.ArrivedAt, s.ArrivedAt
	s.CP = r
	return r
}

// push appends [r.last, to) as one segment and advances the cursor.
// Zero-length segments are skipped; a backwards mark is a violation.
func (p *Profiler) push(r *Rec, kind SegKind, stage string, to sim.Time, blame uint64) {
	if to < r.last {
		p.violate("pkt %d: %v mark at %v behind cursor %v (stage %s)", r.Pkt, kind, to, r.last, stage)
		return
	}
	if to == r.last {
		return
	}
	r.Timeline = append(r.Timeline, Segment{Kind: kind, Stage: stage, Start: r.last, End: to, Blame: blame})
	r.last = to
}

// Mark classifies [cursor, to) as kind at stage.
func (p *Profiler) Mark(s *skb.SKB, kind SegKind, stage string, to sim.Time) {
	if p == nil {
		return
	}
	p.push(p.rec(s), kind, stage, to, 0)
}

// MarkBlame classifies [cursor, to) as reorder-wait released by packet
// blame (0 = gap-timeout/flush). Zero-length waits (the packet was
// deliverable on its own arrival) record nothing.
func (p *Profiler) MarkBlame(s *skb.SKB, stage string, to sim.Time, blame uint64) {
	if p == nil {
		return
	}
	p.push(p.rec(s), SegReorderWait, stage, to, blame)
}

// NoteIdleWake flags that the packet's enqueue is waking an idle worker, so
// the head of its coming wait is handoff latency (IPI/softirq raise) rather
// than queueing behind earlier packets. Called before the Enqueue.
func (p *Profiler) NoteIdleWake(s *skb.SKB) {
	if p == nil {
		return
	}
	p.rec(s).wake = true
}

// NoteBatched flags that the packet finished a stage's phase-1 work and now
// sits inside the poll batch; on a GRO stage the gap to phase-2 is the GRO
// hold window.
func (p *Profiler) NoteBatched(s *skb.SKB) {
	if p == nil {
		return
	}
	p.rec(s).batched = true
}

// MarkWait classifies the gap [cursor, start) a packet spent before a
// stage's first execution on its behalf:
//
//	ring-fed stage, empty timeline  → ring-wait (descriptor ring + IRQ delay)
//	held in a GRO stage's batch     → gro-hold
//	enqueue woke an idle worker     → handoff for min(wakeDelay, gap),
//	                                  then queue for the remainder
//	otherwise                       → queue
//
// The wake/batched flags are consumed even when the gap is empty.
func (p *Profiler) MarkWait(s *skb.SKB, stage string, start sim.Time, ringFed, groStage bool, wakeDelay sim.Duration) {
	if p == nil {
		return
	}
	r := p.rec(s)
	wasWake, wasBatched := r.wake, r.batched
	r.wake, r.batched = false, false
	if start < r.last {
		p.violate("pkt %d: wait mark at %v behind cursor %v (stage %s)", r.Pkt, start, r.last, stage)
		return
	}
	if start == r.last {
		return
	}
	switch {
	case ringFed && len(r.Timeline) == 0:
		p.push(r, SegRingWait, stage, start, 0)
	case wasBatched && groStage:
		p.push(r, SegGROHold, stage, start, 0)
	default:
		if wasWake && wakeDelay > 0 {
			mid := r.last.Add(wakeDelay)
			if mid > start {
				mid = start
			}
			p.push(r, SegHandoff, stage, mid, 0)
		}
		p.push(r, SegQueue, stage, start, 0)
	}
}

// MarkServe classifies a socket delivery-copy execution window: the gap to
// start is socket backlog wait, [start, end) is the copy itself.
func (p *Profiler) MarkServe(s *skb.SKB, start, end sim.Time) {
	if p == nil {
		return
	}
	r := p.rec(s)
	p.push(r, SegSockWait, "socket", start, 0)
	p.push(r, SegCopy, "socket", end, 0)
}

// Complete closes a packet's record at its userspace delivery instant,
// verifies conservation (segments are contiguous from Arrived and sum
// exactly to the end-to-end latency), aggregates it into the breakdown,
// and retains it if it is among the flow's k slowest.
func (p *Profiler) Complete(s *skb.SKB, at sim.Time) {
	if p == nil {
		return
	}
	r := p.rec(s)
	s.CP = nil
	if at < r.last {
		p.violate("pkt %d: completed at %v behind cursor %v", r.Pkt, at, r.last)
		at = r.last
	}
	p.push(r, SegOther, "tail", at, 0)
	r.Done = at
	r.Outcome = Delivered
	// The skb's coverage may have grown (GRO) since the record was
	// created; re-read it at the terminal point.
	r.Seq, r.Segs = s.Seq, s.Segs

	// Conservation self-check: the timeline must tile [Arrived, Done]
	// with no gap, overlap, or residual. Exact — simulated time is
	// integer nanoseconds.
	prev := r.Arrived
	var sum sim.Duration
	for _, seg := range r.Timeline {
		if seg.Start != prev || seg.End < seg.Start {
			p.violate("pkt %d: timeline broken at %v (%v %s)", r.Pkt, seg.Start, seg.Kind, seg.Stage)
		}
		prev = seg.End
		sum += seg.End.Sub(seg.Start)
	}
	if prev != at || sum != at.Sub(r.Arrived) {
		p.violate("pkt %d: segments sum to %v, e2e is %v", r.Pkt, sum, at.Sub(r.Arrived))
	}

	if p.OnComplete != nil {
		p.OnComplete(r)
	}
	p.DeliveredPkts++
	p.SumE2E += r.E2E()
	for i, seg := range r.Timeline {
		st := p.stat(i, seg.Kind, seg.Stage)
		st.Count++
		d := seg.Dur()
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
	}
	p.keepOrRecycle(r)
}

// stat returns the (kind, stage) aggregate for segment i of a timeline.
// It tries aggHint[i] first; on a miss it looks the key up in the map and
// moves the hint there for the next timeline.
func (p *Profiler) stat(i int, kind SegKind, stage string) *KindStat {
	if i < len(p.aggHint) {
		if st := p.aggHint[i]; st != nil && st.Kind == kind && st.Stage == stage {
			return st
		}
	} else {
		p.aggHint = append(p.aggHint, make([]*KindStat, i+1-len(p.aggHint))...)
	}
	if p.agg == nil {
		p.agg = make(map[aggKey]*KindStat)
	}
	k := aggKey{kind, stage}
	st := p.agg[k]
	if st == nil {
		st = &KindStat{Kind: kind, Stage: stage}
		p.agg[k] = st
	}
	p.aggHint[i] = st
	return st
}

// keepOrRecycle retains r if it ranks among its flow's k slowest delivered
// packets, displacing (and recycling) the fastest incumbent otherwise.
func (p *Profiler) keepOrRecycle(r *Rec) {
	k := p.ExemplarsPerFlow
	if k <= 0 {
		k = DefaultExemplarsPerFlow
	}
	if p.exemplars == nil {
		p.exemplars = make(map[uint64][]*Rec)
	}
	ex := p.exemplars[r.Flow]
	if len(ex) < k {
		p.exemplars[r.Flow] = insertExemplar(ex, r)
		return
	}
	// ex is sorted by descending E2E; the last entry is the fastest kept.
	if tail := ex[len(ex)-1]; r.E2E() > tail.E2E() {
		p.recycle(tail)
		p.exemplars[r.Flow] = insertExemplar(ex[:len(ex)-1], r)
		return
	}
	p.recycle(r)
}

// insertExemplar inserts r into ex keeping descending E2E order (ties keep
// arrival order — the earlier packet stays first).
func insertExemplar(ex []*Rec, r *Rec) []*Rec {
	i := sort.Search(len(ex), func(i int) bool { return ex[i].E2E() < r.E2E() })
	ex = append(ex, nil)
	copy(ex[i+1:], ex[i:])
	ex[i] = r
	return ex
}

// Absorb closes a packet merged away by GRO: its lifetime after the merge
// belongs to the absorbing super-packet, so the record ends at its own last
// mark (the merge happens within the same poll round).
func (p *Profiler) Absorb(s *skb.SKB) {
	if p == nil {
		return
	}
	r := p.rec(s)
	s.CP = nil
	r.Done = r.last
	r.Outcome = Absorbed
	p.AbsorbedPkts++
	p.recycle(r)
}

// Drop closes a packet that left the stack at a drop point.
func (p *Profiler) Drop(s *skb.SKB, at sim.Time, where string) {
	if p == nil {
		return
	}
	r := p.rec(s)
	s.CP = nil
	if at > r.last {
		p.push(r, SegOther, where, at, 0)
	}
	r.Done = r.last
	r.Outcome = Dropped
	r.Where = where
	p.DroppedPkts++
	p.recycle(r)
}

// ResetStats discards everything aggregated so far — breakdown, exemplars,
// outcome counters — while keeping in-flight packet records intact. The
// runner calls it at the warmup/measure boundary so breakdowns cover the
// measurement window only. Violations are cumulative and not reset.
func (p *Profiler) ResetStats() {
	if p == nil {
		return
	}
	p.agg = nil
	clear(p.aggHint)
	for _, ex := range p.exemplars {
		for _, r := range ex {
			p.recycle(r)
		}
	}
	p.exemplars = nil
	p.DeliveredPkts, p.AbsorbedPkts, p.DroppedPkts = 0, 0, 0
	p.SumE2E = 0
}

// Breakdown returns the per-(kind, stage) aggregates of every delivered
// packet's timeline, sorted by kind then stage (deterministic output from
// the unordered aggregation map).
func (p *Profiler) Breakdown() []KindStat {
	if p == nil {
		return nil
	}
	out := make([]KindStat, 0, len(p.agg))
	for _, st := range p.agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Exemplars returns the retained slowest-packet records, flows in ascending
// id order, each flow's records slowest-first.
func (p *Profiler) Exemplars() []*Rec {
	if p == nil {
		return nil
	}
	flows := make([]uint64, 0, len(p.exemplars))
	for f := range p.exemplars {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	var out []*Rec
	for _, f := range flows {
		out = append(out, p.exemplars[f]...)
	}
	return out
}
