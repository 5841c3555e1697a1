package overlay

import (
	"mflow/internal/causal"
	"mflow/internal/gro"
	"mflow/internal/metrics"
	"mflow/internal/netdev"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/trace"
)

// stage is one softirq worker: a queue on a core that, per poll round,
// charges its pre-GRO devices per incoming skb, optionally coalesces with
// GRO, charges its post-GRO devices per resulting skb (applying their
// semantic actions, e.g. VxLAN decap), and hands each result downstream at
// its completion instant. A per-emission handoff cost models explicit
// pipeline transfers (FALCON) or steering (RPS).
type stage struct {
	name   string
	worker *sim.Worker[*skb.SKB]
	sched  *sim.Scheduler

	pre  []*netdev.Device
	gro  *gro.GRO
	post []*netdev.Device

	// each, if set, runs per incoming skb after the pre devices (used
	// for the split driver's completion-update batching).
	each func(*skb.SKB, *sim.Core)

	// handoff is charged on this stage's core per emitted skb.
	handoff sim.Duration

	// probe observes the stage's skbs on an observed run (nil otherwise).
	probe *stageProbe

	out func(*skb.SKB, sim.Time)

	// outH schedules per-skb emissions through the scheduler's
	// closure-free path; the skb rides the event arg.
	outH stageOutH

	// pool recycles skbs this stage drops at its admission queue (nil =
	// no pooling). release, when overload control is wired, returns a
	// dropped skb's memory charge before the pool reuses it.
	pool    *skb.Pool
	release func(*skb.SKB)

	// aqm, when overload control configures the CoDel AQM, applies the
	// control law to each drained batch; aqmSojourn records every
	// measured queue sojourn (shared across the run's managed stages).
	aqm        *overload.CoDel
	aqmSojourn *metrics.Histogram

	// ringFed marks the stage whose queue is the NIC descriptor ring: the
	// overload manager samples its core, and a probed run classifies its
	// first wait as ring-wait rather than softirq queueing.
	ringFed bool
}

// stageOutH hands an emitted skb downstream at its completion instant.
type stageOutH struct{ st *stage }

// Handle implements sim.Handler.
func (h stageOutH) Handle(arg any, now sim.Time) {
	h.st.out(arg.(*skb.SKB), now)
}

// newStage builds a stage on core. Cross-core feeders should leave wake as
// the backlog wake delay; the NIC overrides it for ring-fed stages.
func newStage(name string, coreC *sim.Core, sched *sim.Scheduler, cfg *CostModel, cap int, wake sim.Duration) *stage {
	st := &stage{name: name, sched: sched}
	st.worker = &sim.Worker[*skb.SKB]{
		Name:         "softirq",
		Core:         coreC,
		Sched:        sched,
		Budget:       sim.DefaultBudget,
		Cap:          cap,
		PollOverhead: cfg.PollOverhead,
		WakeDelay:    wake,
	}
	st.worker.ProcessBatch = st.process
	st.outH = stageOutH{st}
	return st
}

func (st *stage) core() *sim.Core { return st.worker.Core }

// retire returns a dropped skb to the pool, first releasing its overload
// memory charge when accounting is wired. Both hooks tolerate absence, so
// bare stages (tests) and unpooled runs work unchanged.
func (st *stage) retire(s *skb.SKB) {
	if st.release != nil {
		st.release(s)
	}
	st.pool.Put(s)
}

// aqmFilter applies the CoDel control law to a drained batch: each skb's
// queue sojourn (dequeue minus QueuedAt) is measured, skbs the law discards
// retire before any device work is charged, and survivors' sojourns are
// recorded (the histogram is the delivered path's queueing delay).
func (st *stage) aqmFilter(batch []*skb.SKB) []*skb.SKB {
	now := st.sched.Now()
	kept := batch[:0]
	for _, s := range batch {
		var sojourn sim.Duration
		if s.QueuedAt > 0 {
			sojourn = now.Sub(s.QueuedAt)
		}
		if st.aqm.Drop(sojourn, now) {
			if pr := st.probe; pr != nil {
				pr.drop(s)
			}
			st.retire(s)
			continue
		}
		st.aqmSojourn.Record(int64(sojourn))
		kept = append(kept, s)
	}
	return kept
}

// process is the stage's poll round. Phase 1 charges the pre devices per
// incoming skb, GRO coalesces the batch, phase 2 charges the post devices
// and handoff per resulting skb, and the results leave as one scheduler
// run. An observed run watches every execution and emission through
// st.probe; an unobserved one pays a nil check per execution and per
// emitted skb.
func (st *stage) process(batch []*skb.SKB) {
	if st.aqm != nil {
		batch = st.aqmFilter(batch)
	}
	c, pr := st.worker.Core, st.probe
	if pr != nil {
		pr.poll(batch, st.sched.Now())
	}
	for _, s := range batch {
		for i, d := range st.pre {
			start, end := c.Exec(d.CostOf(s), d.Name)
			if pr != nil {
				pr.pre(st, s, i, start, end)
			}
			d.Apply(s)
		}
		if st.each != nil {
			st.each(s, c)
		}
	}
	if st.gro != nil {
		batch = st.gro.Coalesce(batch)
	}
	// The emission loop chains the batch into one scheduler run: emission
	// instants are monotone within a poll round (the core executes FIFO),
	// so one ScheduleRun replaces a heap insert per skb.
	var head, tail *skb.SKB
	var headAt sim.Time
	runN := 0
	for _, s := range batch {
		end := st.sched.Now()
		for i, d := range st.post {
			var start sim.Time
			start, end = c.Exec(d.CostOf(s), d.Name)
			if pr != nil {
				pr.post(st, s, causal.SegService, i == 0, start, end)
			}
			d.Apply(s)
		}
		if st.handoff > 0 {
			var start sim.Time
			start, end = c.Exec(st.handoff, "handoff")
			if pr != nil {
				pr.post(st, s, causal.SegHandoff, len(st.post) == 0, start, end)
			}
		}
		if len(st.post) == 0 && st.handoff == 0 {
			end = c.FreeAt()
		}
		if pr != nil {
			pr.emit(st, s, end)
		}
		if tail == nil {
			head, headAt = s, end
		} else {
			tail.SetNextRun(s, end)
		}
		tail = s
		runN++
	}
	if runN > 0 {
		st.sched.ScheduleRun(st.outH, head, headAt, runN)
	}
}

// feed returns an enqueue function for wiring a previous stage's output
// into this stage. Skbs rejected at the queue (cap or gate) are dead — no
// retransmission below the socket layer — so they return to the pool here.
func (st *stage) feed() func(*skb.SKB, sim.Time) {
	return func(s *skb.SKB, _ sim.Time) {
		pr := st.probe
		if pr != nil && st.worker.Idle() {
			pr.prof.NoteIdleWake(s)
		}
		s.QueuedAt = st.sched.Now()
		if !st.worker.Enqueue(s) {
			if pr != nil {
				pr.drop(s)
			}
			st.retire(s)
		}
	}
}

// stageProbe observes one point of the receive path — a softirq stage, the
// socket, or a drop point — for whatever a run attaches: the journey
// tracer, the stage_latency and stage_gap histograms, the causal profiler
// and the flight recorder. It only reads the simulation. Points of an
// unobserved run have no probe at all, so each method may assume an
// observed run and relies on the nil-safe tracer, histogram, profiler and
// recorder for the attachments that run lacks.
type stageProbe struct {
	name  string
	sched *sim.Scheduler

	tracer *trace.Tracer
	// latency accumulates stage_latency{stage}: time since NIC arrival,
	// weighted per wire segment. gap records stage_gap{from,to}, the
	// queueing delay since the previous stage's emission. Both are nil
	// without a registry, and skbs then carry no LastStage stamp.
	latency *metrics.Histogram
	gap     func(from string, v int64)

	prof   *causal.Profiler
	flight *causal.FlightRecorder
	// trigger names the flight-recorder snapshot a drop here takes.
	trigger string
}

// poll records each polled skb's stage_gap from the stage that last
// emitted it.
func (p *stageProbe) poll(batch []*skb.SKB, now sim.Time) {
	if p.gap == nil {
		return
	}
	for _, s := range batch {
		p.gapFrom(s, now)
	}
}

func (p *stageProbe) gapFrom(s *skb.SKB, at sim.Time) {
	if p.gap != nil && s.LastStage != "" {
		p.gap(s.LastStage, int64(at.Sub(s.LastStageAt)))
	}
}

// wait closes the gap s spent before st's first execution on its behalf.
func (p *stageProbe) wait(st *stage, s *skb.SKB, until sim.Time) {
	p.prof.MarkWait(s, p.name, until, st.ringFed, st.gro != nil, st.worker.WakeDelay)
}

// pre marks phase-1 execution i of st on s's critical path. The first one
// closes the wait before it and flags s as batched: after phase 1 it sits
// in the poll batch, which on a GRO stage is the coalescing hold.
func (p *stageProbe) pre(st *stage, s *skb.SKB, i int, start, end sim.Time) {
	if i == 0 {
		p.wait(st, s, start)
		p.prof.NoteBatched(s)
	}
	p.prof.Mark(s, causal.SegService, p.name, end)
}

// post marks a phase-2 execution of st (a post device or the handoff) on
// s's critical path; the first one closes the wait before it.
func (p *stageProbe) post(st *stage, s *skb.SKB, kind causal.SegKind, first bool, start, end sim.Time) {
	if first {
		p.wait(st, s, start)
	}
	p.prof.Mark(s, kind, p.name, end)
}

// emit observes s leaving st at end. A stage with no phase-2 execution of
// its own counts everything up to the emission as wait.
func (p *stageProbe) emit(st *stage, s *skb.SKB, end sim.Time) {
	if len(st.post) == 0 && st.handoff == 0 {
		p.wait(st, s, end)
	}
	p.tracer.Record(end, s.PktID, s.FlowID, s.Seq, s.Segs, p.name, st.core().ID)
	p.latency.RecordN(int64(end.Sub(s.ArrivedAt)), uint64(s.Segs))
	if p.gap != nil {
		s.LastStage, s.LastStageAt = p.name, end
	}
}

// deliver observes s reaching user space at at on core: the socket is the
// pipeline's final stage, so it closes the journey and the causal record.
func (p *stageProbe) deliver(s *skb.SKB, at sim.Time, core int) {
	p.gapFrom(s, at)
	p.tracer.Record(at, s.PktID, s.FlowID, s.Seq, s.Segs, p.name, core)
	p.latency.RecordN(int64(at.Sub(s.ArrivedAt)), uint64(s.Segs))
	p.prof.Complete(s, at)
}

// drop observes an skb discarded here: the profiler closes its record and
// the flight recorder snapshots the cores.
func (p *stageProbe) drop(s *skb.SKB) {
	now := p.sched.Now()
	p.prof.Drop(s, now, p.name)
	p.flight.Trigger(p.trigger, s.PktID, s.FlowID, now)
}
