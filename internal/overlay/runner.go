package overlay

import (
	"math"

	"mflow/internal/metrics"
	"mflow/internal/netdev"
	"mflow/internal/sim"
)

// Run executes a scenario: build the topology, warm it up, measure, and
// report. Runs are deterministic for a fixed scenario (seed included).
func Run(sc Scenario) *Result {
	return RunProbed(sc, Probes{})
}

// RunProbed runs a scenario with causal probes attached. Probes observe
// every packet's critical path without perturbing the run: for any scenario,
// RunProbed(sc, pr) and Run(sc) produce identical measured results (the
// probed-vs-unprobed fingerprint test pins this).
func RunProbed(sc Scenario, pr Probes) *Result {
	sc = sc.withDefaults()
	if sc.Fabric.Enabled() {
		return runFabric(sc, pr)
	}
	arena := recycled.get()
	defer recycled.put(arena)
	return buildHost(sc, pr, arena).run()
}

// snapshot captures the counters that measurement windows are diffed over.
type snapshot struct {
	bytes, msgs, packets uint64
	ring, sock, backlog  uint64
	ooo, oooSKB          uint64
	tcpOFO, switches     uint64
	deliveredOOO         uint64

	// Fault-injection and degradation counters.
	faults, faultDrops      uint64
	retx, rtoTO, fastRetx   uint64
	dupSegs, ofoPruned      uint64
	stale, holes, reasmErrs uint64

	// NIC admission accounting (always measured) and overload-control
	// counters (zero unless the scenario enables overload control).
	offered, accepted, admission uint64
	aqmDrops, ovGated            uint64
	pollEntered, pollExited      uint64
	resteers, resteeredSKBs      uint64
	collapses, restores          uint64
	budgetReleased               uint64

	// Fabric underlay counters (zero on single-host runs).
	uSent, uDelivered, uDrops, uCopies uint64
}

// add accumulates another host's counters into s (fabric runs sum their
// per-host snapshots before diffing windows).
func (s *snapshot) add(o snapshot) {
	s.bytes += o.bytes
	s.msgs += o.msgs
	s.packets += o.packets
	s.ring += o.ring
	s.sock += o.sock
	s.backlog += o.backlog
	s.ooo += o.ooo
	s.oooSKB += o.oooSKB
	s.tcpOFO += o.tcpOFO
	s.switches += o.switches
	s.deliveredOOO += o.deliveredOOO
	s.faults += o.faults
	s.faultDrops += o.faultDrops
	s.retx += o.retx
	s.rtoTO += o.rtoTO
	s.fastRetx += o.fastRetx
	s.dupSegs += o.dupSegs
	s.ofoPruned += o.ofoPruned
	s.stale += o.stale
	s.holes += o.holes
	s.reasmErrs += o.reasmErrs
	s.offered += o.offered
	s.accepted += o.accepted
	s.admission += o.admission
	s.aqmDrops += o.aqmDrops
	s.ovGated += o.ovGated
	s.pollEntered += o.pollEntered
	s.pollExited += o.pollExited
	s.resteers += o.resteers
	s.resteeredSKBs += o.resteeredSKBs
	s.collapses += o.collapses
	s.restores += o.restores
	s.budgetReleased += o.budgetReleased
}

// countersAll sums every host's counters, folding in the underlay's when a
// fabric is present.
func countersAll(hosts []*host, fs *fabState) snapshot {
	var s snapshot
	for _, h := range hosts {
		s.add(h.counters())
	}
	if fs != nil {
		s.uSent = fs.un.Sent
		s.uDelivered = fs.un.Delivered
		s.uDrops = fs.un.Drops
		s.uCopies = fs.un.FloodCopies
	}
	return s
}

func (h *host) counters() snapshot {
	var s snapshot
	for _, fp := range h.flows {
		s.bytes += fp.sock.Bytes
		s.msgs += fp.sock.Msgs
		s.packets += fp.sock.Packets
		s.sock += fp.sock.Dropped()
		if fp.tcpRx != nil {
			s.tcpOFO += fp.tcpRx.OOOArrivals
			s.dupSegs += fp.tcpRx.DupSegments
			s.ofoPruned += fp.tcpRx.OFOPruned
			// TCP's in-order contract is measured at the socket: this
			// must stay zero even under fault injection.
			s.deliveredOOO += fp.sock.OOODelivered
		}
		if fp.tcpTx != nil {
			s.retx += fp.tcpTx.Retransmits
			s.rtoTO += fp.tcpTx.RTOTimeouts
			s.fastRetx += fp.tcpTx.FastRetransmits
		}
		if fp.reasm != nil {
			s.ooo += fp.reasm.OOOSegments
			s.oooSKB += fp.reasm.OOOSKBs
			s.switches += fp.reasm.Switches
			s.stale += fp.reasm.StaleSKBs
			s.holes += fp.reasm.HolesReleased
			s.budgetReleased += fp.reasm.BudgetReleased
			s.reasmErrs += fp.reasm.Errors
			if fp.udpRx != nil {
				s.deliveredOOO += fp.udpRx.OOOArrivals
			}
		} else if fp.udpRx != nil {
			s.ooo += fp.udpRx.OOOArrivals
			s.oooSKB += fp.udpRx.OOOArrivals
			s.deliveredOOO += fp.udpRx.OOOArrivals
		}
		s.reasmErrs += fp.arriveErrs
	}
	s.ring = h.nic.Dropped
	s.offered = h.nic.Offered
	s.accepted = h.nic.Received
	s.admission = h.nic.AdmissionDropped
	for _, st := range h.stages {
		s.backlog += st.worker.Dropped
	}
	if h.inj != nil {
		s.faults = h.inj.Total()
		s.faultDrops = h.inj.Drops()
	}
	if h.ov != nil {
		s.aqmDrops = h.ov.aqmDrops()
		s.ovGated = h.ov.gated
		s.pollEntered = h.ov.pollEntered
		s.pollExited = h.ov.pollExited
		s.resteers = h.ov.resteers
		s.resteeredSKBs = h.ov.resteeredSKBs
		s.collapses = h.ov.collapses
		s.restores = h.ov.restores
	}
	return s
}

// run measures a single prebuilt host (tests drive this directly after
// poking at the topology).
func (h *host) run() *Result {
	return runHosts(h.sc, h.sched, []*host{h}, nil)
}

// runHosts executes the measurement protocol over one or more fully built
// hosts sharing sched: warm up, snapshot, measure, diff. Single-host runs
// pass themselves as a one-element slice with a nil fabric; fabric runs
// pass every host plus the cross-host state. sc is the run-wide scenario
// (for fabric runs the global one, with the total flow count).
func runHosts(sc Scenario, sched *sim.Scheduler, hosts []*host, fs *fabState) *Result {
	// Queue-depth sampling runs through warmup and measurement alike; the
	// warmup-boundary snapshot below separates the windows.
	sc.Obs.StartSampler(sched, 0)

	var allCores []*sim.Core
	for _, h := range hosts {
		allCores = append(allCores, h.cores...)
	}

	// Warmup: let windows fill and queues reach steady state.
	sched.RunUntil(sim.Time(sc.Warmup))
	busy0, tags0 := metrics.CaptureBusy(allCores)
	snap0 := countersAll(hosts, fs)
	inFlight0 := 0
	if fs != nil {
		inFlight0 = fs.un.InFlight()
	}
	for _, h := range hosts {
		h.syncObs()
	}
	if fs != nil {
		fs.syncObs(sc)
	}
	obs0 := sc.Obs.Snapshot()
	for _, h := range hosts {
		for _, fp := range h.flows {
			fp.sock.Latency.Reset()
		}
		if h.ov != nil {
			// The AQM sojourn distribution covers the measured window
			// only, like the latency histograms.
			h.ov.sojourn.Reset()
		}
	}
	// Like the latency histograms, causal aggregates cover the measured
	// window only; in-flight attribution records survive the reset. The
	// profiler is shared run-wide, so one reset covers every host.
	hosts[0].prof.ResetStats()
	start := sched.Now()

	// Measurement window.
	end := sim.Time(sc.Warmup + sc.Measure)
	sched.RunUntil(end)
	snap1 := countersAll(hosts, fs)
	inFlight1 := 0
	if fs != nil {
		inFlight1 = fs.un.InFlight()
	}
	cpu := metrics.SnapshotCPU(allCores, busy0, tags0, start, end)

	for _, h := range hosts {
		for _, fp := range h.flows {
			for _, stop := range fp.stops {
				stop()
			}
		}
	}

	res := &Result{
		Scenario: sc,
		Latency:  metrics.NewHistogram(),
		CPU:      cpu,
		Sched:    sched.Stats(),
	}
	window := end.Sub(start).Seconds()
	res.DeliveredBytes = snap1.bytes - snap0.bytes
	res.DeliveredSegments = snap1.packets - snap0.packets
	res.Gbps = float64(res.DeliveredBytes) * 8 / window / 1e9
	res.MsgPerSec = float64(snap1.msgs-snap0.msgs) / window
	for _, h := range hosts {
		for _, fp := range h.flows {
			res.Latency.Merge(fp.sock.Latency)
		}
	}
	res.OOOSegments = snap1.ooo - snap0.ooo
	res.OOOSKBs = snap1.oooSKB - snap0.oooSKB
	res.TCPOFOSegments = snap1.tcpOFO - snap0.tcpOFO
	res.ReassemblySwitches = snap1.switches - snap0.switches
	res.DeliveredOutOfOrder = snap1.deliveredOOO - snap0.deliveredOOO
	for _, h := range hosts {
		for _, fp := range h.flows {
			res.WireErrors += fp.sock.VerifyErrors
			if fp.vx != nil {
				res.WireErrors += fp.vx.Errors
			}
		}
	}
	res.DropsRing = snap1.ring - snap0.ring
	res.DropsSock = snap1.sock - snap0.sock
	res.DropsBacklog = snap1.backlog - snap0.backlog
	res.FaultsInjected = snap1.faults - snap0.faults
	res.FaultDrops = snap1.faultDrops - snap0.faultDrops
	res.Retransmits = snap1.retx - snap0.retx
	res.RTOTimeouts = snap1.rtoTO - snap0.rtoTO
	res.FastRetransmits = snap1.fastRetx - snap0.fastRetx
	res.StaleReleased = snap1.stale - snap0.stale
	res.HolesReleased = snap1.holes - snap0.holes
	res.OFOPruned = snap1.ofoPruned - snap0.ofoPruned
	res.TCPDupSegments = snap1.dupSegs - snap0.dupSegs
	res.ReassemblyErrors = snap1.reasmErrs - snap0.reasmErrs
	res.OfferedFrames = snap1.offered - snap0.offered
	res.AcceptedFrames = snap1.accepted - snap0.accepted
	res.DropsAdmission = snap1.admission - snap0.admission
	res.DropsAQM = snap1.aqmDrops - snap0.aqmDrops
	res.OverloadGated = snap1.ovGated - snap0.ovGated
	res.PollModeEntered = snap1.pollEntered - snap0.pollEntered
	res.PollModeExited = snap1.pollExited - snap0.pollExited
	res.WatchdogResteers = snap1.resteers - snap0.resteers
	res.WatchdogResteeredSKBs = snap1.resteeredSKBs - snap0.resteeredSKBs
	res.DegradeCollapses = snap1.collapses - snap0.collapses
	res.DegradeRestores = snap1.restores - snap0.restores
	res.ReasmBudgetReleased = snap1.budgetReleased - snap0.budgetReleased
	for _, h := range hosts {
		if h.ov == nil {
			continue
		}
		if v := int64(h.ov.recoveryMax); v > res.WatchdogRecoveryMaxNs {
			res.WatchdogRecoveryMaxNs = v
		}
		res.MemPeakBytes += h.ov.acct.PeakBytes
		if p := h.ov.sojourn.P99(); p > res.AQMSojournP99 {
			res.AQMSojournP99 = p
		}
	}
	for _, h := range hosts {
		for _, fp := range h.flows {
			if res.ReassemblyErr == nil && fp.reasm != nil {
				res.ReassemblyErr = fp.reasm.FirstErr
			}
			if res.ReassemblyErr == nil {
				res.ReassemblyErr = fp.arriveErr
			}
		}
	}
	if fs != nil {
		res.UnderlaySent = snap1.uSent - snap0.uSent
		res.UnderlayDelivered = snap1.uDelivered - snap0.uDelivered
		res.UnderlayDrops = snap1.uDrops - snap0.uDrops
		res.UnderlayFloodCopies = snap1.uCopies - snap0.uCopies
		res.UnderlayInFlightStart = inFlight0
		res.UnderlayInFlightEnd = inFlight1
		// FDB counters are run totals, not window deltas: flood-then-learn
		// plays out during warmup and would vanish from a delta.
		res.FDBFloods, res.FDBLearned, res.FDBAged = fs.fdbTotals()
	}

	// Kernel-core balance (Fig. 12's metric): mean/stddev of per-core
	// utilization percentages across the kernel pool (every host's pool in
	// a fabric run — each host contributes its own kernel-core slice).
	perHost := sc.AppCores + sc.KernelCores
	var kutil []float64
	for i := range hosts {
		for _, s := range cpu[i*perHost+sc.AppCores : (i+1)*perHost] {
			kutil = append(kutil, s.Total*100)
		}
	}
	_, res.KernelCPUStddev = metrics.MeanStddev(kutil)
	for _, u := range kutil {
		res.KernelCPUTotal += u
	}

	// Achieved GRO merge factor across engines.
	var segs, skbs uint64
	for _, h := range hosts {
		for _, g := range h.gros {
			segs += g.SegsIn
			skbs += g.SkbsOut
		}
	}
	if skbs > 0 {
		res.GROFactor = float64(segs) / float64(skbs)
	} else {
		res.GROFactor = 1
	}
	if math.IsNaN(res.Gbps) {
		res.Gbps = 0
	}
	res.Breakdown = hosts[0].prof.Breakdown()
	if sc.Obs != nil {
		sc.Obs.StopSampler()
		for _, h := range hosts {
			h.syncObs()
		}
		if fs != nil {
			fs.syncObs(sc)
		}
		res.Obs = sc.Obs.Snapshot().Diff(obs0)
	}
	return res
}

// syncObs mirrors the externally accumulated monotonic stats — NIC, queue
// drops, per-device traffic — into the scenario's registry. It runs at both
// window boundaries so Snapshot.Diff yields correct per-window deltas.
func (h *host) syncObs() {
	reg := h.sc.Obs
	if reg == nil {
		return
	}
	// pfx is empty on a single host; fabric hosts prefix their Set-based
	// counters ("h0:nic_received") so N hosts sharing one registry don't
	// overwrite each other. Record-based histograms aggregate safely and
	// stay unprefixed.
	pfx := h.obsPfx
	reg.Counter(pfx + "nic_received").Set(h.nic.Received)
	reg.Counter(pfx + "nic_dropped").Set(h.nic.Dropped)
	reg.Counter(pfx + "nic_irqs").Set(h.nic.IRQs)
	// The three NIC drop paths stay distinct: nic_dropped is descriptor-ring
	// overrun, nic_admission_dropped the overload memory budget's rejections
	// (before the ring), and aqm_dropped below the CoDel discards at backlog
	// and splitting queues. nic_offered counts every frame presented, so
	// offered == received + dropped + admission_dropped always holds.
	reg.Counter(pfx + "nic_offered").Set(h.nic.Offered)
	reg.Counter(pfx + "nic_admission_dropped").Set(h.nic.AdmissionDropped)

	// Per-stage backlog totals, aggregated across same-named stages
	// (parallel branches, multiple flows).
	enq := map[string]uint64{}
	drop := map[string]uint64{}
	polls := map[string]uint64{}
	seen := map[*netdev.Device]bool{}
	devSegs := map[string]uint64{}
	devSKBs := map[string]uint64{}
	devBytes := map[string]uint64{}
	for _, st := range h.stages {
		enq[st.name] += st.worker.Enqueued
		drop[st.name] += st.worker.Dropped
		polls[st.name] += st.worker.PollRounds
		for _, d := range append(append([]*netdev.Device{}, st.pre...), st.post...) {
			if seen[d] {
				continue
			}
			seen[d] = true
			devSegs[d.Name] += d.Segs
			devSKBs[d.Name] += d.SKBs
			devBytes[d.Name] += d.Bytes
		}
	}
	for name, v := range enq {
		reg.Counter(pfx+"backlog_enqueued", "stage", name).Set(v)
	}
	for name, v := range drop {
		reg.Counter(pfx+"backlog_dropped", "stage", name).Set(v)
	}
	for name, v := range polls {
		reg.Counter(pfx+"poll_rounds", "stage", name).Set(v)
	}
	for name, v := range devSegs {
		reg.Counter(pfx+"device_segs", "device", name).Set(v)
	}
	for name, v := range devSKBs {
		reg.Counter(pfx+"device_skbs", "device", name).Set(v)
	}
	for name, v := range devBytes {
		reg.Counter(pfx+"device_bytes", "device", name).Set(v)
	}

	var sockDrop, sockSegs uint64
	for _, fp := range h.flows {
		sockDrop += fp.sock.Dropped()
		sockSegs += fp.sock.Packets
	}
	reg.Counter(pfx + "socket_dropped").Set(sockDrop)
	reg.Counter(pfx + "socket_delivered_segs").Set(sockSegs)

	// Fault-injection and degradation counters (all zero without a fault
	// plan, so fault-free registries are unchanged in shape only when the
	// scenario never carried a plan — values stay zero either way).
	if h.inj != nil {
		s := h.counters()
		reg.Counter(pfx + "faults_injected").Set(s.faults)
		reg.Counter(pfx + "fault_drops").Set(s.faultDrops)
		reg.Counter(pfx + "retransmits").Set(s.retx)
		reg.Counter(pfx + "rto_timeouts").Set(s.rtoTO)
		reg.Counter(pfx + "fast_retransmits").Set(s.fastRetx)
		reg.Counter(pfx + "stale_released").Set(s.stale)
		reg.Counter(pfx + "holes_released").Set(s.holes)
		reg.Counter(pfx + "ofo_pruned").Set(s.ofoPruned)
		reg.Counter(pfx + "tcp_dup_segments").Set(s.dupSegs)
		reg.Counter(pfx + "reassembly_errors").Set(s.reasmErrs)
	}

	// Overload-control counters (see Result's field docs for semantics).
	if ov := h.ov; ov != nil {
		s := h.counters()
		reg.Counter(pfx + "aqm_dropped").Set(s.aqmDrops)
		reg.Counter(pfx + "overload_gated").Set(s.ovGated)
		reg.Counter(pfx + "poll_mode_entered").Set(s.pollEntered)
		reg.Counter(pfx + "poll_mode_exited").Set(s.pollExited)
		reg.Counter(pfx + "watchdog_resteers").Set(s.resteers)
		reg.Counter(pfx + "watchdog_resteered_skbs").Set(s.resteeredSKBs)
		reg.Counter(pfx + "degrade_collapses").Set(s.collapses)
		reg.Counter(pfx + "degrade_restores").Set(s.restores)
		reg.Counter(pfx + "reasm_budget_released").Set(s.budgetReleased)
		reg.Counter(pfx + "mem_charged").Set(ov.acct.Charged)
		reg.Counter(pfx + "mem_released").Set(ov.acct.Released)
	}
}
