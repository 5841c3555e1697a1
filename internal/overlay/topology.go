package overlay

import (
	"fmt"
	"os"
	"sync"

	"mflow/internal/causal"
	mflow "mflow/internal/core"
	"mflow/internal/fault"
	"mflow/internal/gro"
	"mflow/internal/netdev"
	"mflow/internal/nic"
	"mflow/internal/obs"
	"mflow/internal/packet"
	"mflow/internal/pcap"
	"mflow/internal/proto"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
	"mflow/internal/traffic"
	"mflow/internal/txpath"
)

const sameCoreWake = 200 // softirq re-raise latency on the same core

// disablePool turns SKB pooling off process-wide. Tests flip it to prove
// pooled and unpooled runs fingerprint identically; the MFLOW_NOPOOL
// environment variable does the same for command-line A/B comparisons. It is
// deliberately not a Scenario field: scenario keys (and therefore run
// fingerprints) must not depend on an engine-internal toggle.
var disablePool = os.Getenv("MFLOW_NOPOOL") != ""

// newPool returns a fresh SKB pool, or nil when pooling is disabled.
func newPool() *skb.Pool {
	if disablePool {
		return nil
	}
	return &skb.Pool{}
}

// recycled hands each finished run's SKB pool to the next run, so a run
// starts with the working set its predecessor grew instead of regrowing
// it from empty. It is an explicit LIFO rather than a sync.Pool: it holds
// at most one pool per run that was ever in flight at once, and the
// garbage collector never drops a warm pool for a cold one.
var recycled poolCache

// poolCache is a mutex-guarded stack of idle, Reset pools.
type poolCache struct {
	mu    sync.Mutex
	pools []*skb.Pool
}

// get returns an idle pool, a fresh one when none is idle, or nil when
// pooling is disabled (which disables recycling too).
func (c *poolCache) get() *skb.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.pools); n > 0 && !disablePool {
		p := c.pools[n-1]
		c.pools[n-1] = nil
		c.pools = c.pools[:n-1]
		return p
	}
	return newPool()
}

// put resets the pool of a run that is over and makes it idle. The caller
// must hold no reference to the run's SKBs (see skb.Pool.Reset).
func (c *poolCache) put(p *skb.Pool) {
	if p == nil {
		return
	}
	p.Reset()
	c.mu.Lock()
	c.pools = append(c.pools, p)
	c.mu.Unlock()
}

// udpBacklogCap bounds intermediate queues on UDP paths
// (netdev_max_backlog-style); TCP paths are window-limited instead.
const udpBacklogCap = 1000

// host is a fully wired receive-side machine plus its traffic sources.
type host struct {
	sc      Scenario
	sched   *sim.Scheduler
	cores   []*sim.Core // [0,AppCores) app, [AppCores,..) kernel
	clients []*sim.Core
	nic     *nic.NIC
	flows   []*flowPath
	stages  []*stage
	gros    []*gro.GRO
	capture *pcap.Writer
	inj     *fault.Injector // nil unless sc.Faults is enabled
	ov      *ovState        // nil unless sc.Overload is enabled

	// pool recycles the run's SKBs (nil when pooling is disabled). A
	// pool serves one run at a time; fabric hosts share their run's pool.
	pool *skb.Pool
	// tracer / prof / flight are the run's probes (all nil for unprobed
	// runs; see Probes). They observe the pipeline through stage probes and
	// plain func hooks and never alter its behaviour.
	tracer *trace.Tracer
	prof   *causal.Profiler
	flight *causal.FlightRecorder
	// ackFree recycles ackRelay events; nicH is the closure-free wire
	// delivery handler used by Stack.Send.
	ackFree []*ackRelay
	nicH    nicDeliverH

	// Fabric-mode fields; both zero for single-host runs. obsPfx prefixes
	// the host's Set-based registry names ("h0:nic_received") so N hosts
	// sharing one registry don't overwrite each other; ackExtra adds the
	// underlay's one-way latency to the abstract ACK return path of flows
	// this host sends cross-host.
	obsPfx   string
	ackExtra sim.Duration
}

// ackRelay carries one acknowledgement (cumulative or duplicate) across the
// lossless return path's wire delay. The relay itself is the event handler —
// the sequence number is a uint64 and would allocate if boxed into the event
// arg — and returns to a host-local freelist after firing.
type ackRelay struct {
	h   *host
	tx  *traffic.TCPSender
	end uint64
	dup bool
}

// Handle implements sim.Handler.
func (a *ackRelay) Handle(_ any, now sim.Time) {
	if a.dup {
		a.tx.DupAck(a.end)
	} else {
		a.tx.Ack(a.end, now)
	}
	a.h.putAck(a)
}

func (h *host) getAck() *ackRelay {
	if n := len(h.ackFree); n > 0 {
		a := h.ackFree[n-1]
		h.ackFree = h.ackFree[:n-1]
		return a
	}
	return &ackRelay{h: h}
}

func (h *host) putAck(a *ackRelay) {
	a.tx, a.end, a.dup = nil, 0, false
	h.ackFree = append(h.ackFree, a)
}

// nicDeliverH delivers a frame to the host's NIC after the one-way wire
// delay (Stack.Send's per-segment event), recycling frames a full ring
// rejects.
type nicDeliverH struct{ h *host }

// Handle implements sim.Handler.
func (d nicDeliverH) Handle(arg any, _ sim.Time) {
	s := arg.(*skb.SKB)
	if !d.h.nic.Deliver(s) {
		d.h.retire(s)
	}
}

// retire is the host's terminal recycle funnel: it releases any overload
// memory charge the skb still carries, then returns it to the pool. Both
// steps tolerate absence (no overload manager, no pool), so every terminal
// point — socket delivery, drops, GRO absorption — routes through it.
func (h *host) retire(s *skb.SKB) {
	if h.ov != nil {
		h.ov.acct.Release(s)
	}
	h.pool.Put(s)
}

// flowPath is one flow's receive pipeline endpoints and sources.
type flowPath struct {
	id     uint64
	sock   *proto.Socket
	tcpRx  *proto.TCPReceiver
	tcpTx  *traffic.TCPSender
	udpRx  *proto.UDPReceiver
	reasm  *mflow.Reassembler
	split  *mflow.Splitter
	detect *mflow.Detector
	vx     *netdev.VXLAN
	stops  []func()
	// probe observes user-space delivery and socket drops (nil unobserved).
	probe *stageProbe

	// arriveErrs records reassembler Arrive failures (missing micro-flow
	// stamps) instead of panicking mid-run; arriveErr keeps the first.
	arriveErrs uint64
	arriveErr  error
}

// recordArriveErr notes a reassembler admission error; the run degrades
// (the skb is not merged) rather than dying.
func (fp *flowPath) recordArriveErr(err error) {
	fp.arriveErrs++
	if fp.arriveErr == nil {
		fp.arriveErr = err
	}
}

// encapIngress models the sending host's VxLAN encapsulation: frames arrive
// at the receiver's pNIC already wrapped in outer headers.
type encapIngress struct{ inner traffic.Ingress }

// Deliver implements traffic.Ingress.
func (e encapIngress) Deliver(s *skb.SKB) bool {
	s.Encap = true
	s.WireLen += packet.OverlayOverhead * s.Segs
	return e.inner.Deliver(s)
}

// captureTap streams every wire frame entering the NIC into the host's
// pcap capture.
type captureTap struct {
	h     *host
	inner traffic.Ingress
}

// Deliver implements traffic.Ingress.
func (c *captureTap) Deliver(s *skb.SKB) bool {
	if s.Data != nil {
		// Capture errors only mean the sink failed; the simulation
		// proceeds regardless.
		_ = c.h.capture.WritePacket(c.h.sched.Now(), s.Data)
	}
	return c.inner.Deliver(s)
}

// arrivalSeq re-stamps each segment's sequence number with its NIC arrival
// order. Sequence numbers define the flow's in-order contract for splitting
// and reassembly; with several independent clients stressing one UDP flow,
// only arrival order is meaningful.
type arrivalSeq struct {
	n    *nic.NIC
	next uint64
}

// Deliver implements traffic.Ingress.
func (a *arrivalSeq) Deliver(s *skb.SKB) bool {
	s.Seq = a.next
	a.next += uint64(s.Segs)
	return a.n.Deliver(s)
}

func dev(name string, c netdev.Cost) *netdev.Device {
	return &netdev.Device{Name: name, Cost: c}
}

// baseFor returns flow f's IRQ/base kernel-core offset: RSS hashing in the
// normal regime (collisions included — with 10 flows on 10 cores some cores
// carry two flows while others idle, exactly like real hashing), core 0 in
// the shared-queue regime.
func (h *host) baseFor(f int, overlayPath bool) int {
	if h.sc.SharedQueue && overlayPath {
		return 0
	}
	if h.sc.Flows == 1 {
		return 0
	}
	return int(nic.Hash64(uint64(f)+0x9e37) % uint64(h.sc.KernelCores))
}

// kcore returns kernel core at offset i (mod pool size).
func (h *host) kcore(i int) *sim.Core {
	k := h.sc.KernelCores
	return h.cores[h.sc.AppCores+((i%k)+k)%k]
}

// acore returns the app core serving flow f.
func (h *host) acore(f int) *sim.Core {
	return h.cores[f%h.sc.AppCores]
}

func (h *host) newClientCore() *sim.Core {
	c := sim.NewCore(1000+len(h.clients), h.sched)
	h.clients = append(h.clients, c)
	return c
}

// newProbe returns the observer of one receive-path point, or nil when the
// run attaches nothing. With a registry the probe records the point's
// stage_latency and stage_gap histograms; points sharing a name (parallel
// branches, one stage across flows) share them, so stage_latency{stage=X}
// aggregates all of X. trigger names the flight-recorder snapshot a drop at
// the point takes.
func (h *host) newProbe(name, trigger string, reg *obs.Registry) *stageProbe {
	if h.sc.Obs == nil && h.tracer == nil && h.prof == nil && h.flight == nil {
		return nil
	}
	p := &stageProbe{name: name, sched: h.sched, tracer: h.tracer, prof: h.prof, flight: h.flight, trigger: trigger}
	if reg != nil {
		p.latency = reg.Histogram("stage_latency", "stage", name)
		p.gap = reg.GapTo(name)
	}
	return p
}

// newStageT builds a stage wired to the host's pool, overload account and
// probes.
func (h *host) newStageT(name string, coreC *sim.Core, cap int, wake sim.Duration) *stage {
	st := newStage(name, coreC, h.sched, h.sc.Costs, cap, wake)
	st.pool = h.pool
	if h.ov != nil {
		st.release = h.ov.acct.Release
	}
	st.probe = h.newProbe(name, "drop-backlog", h.sc.Obs)
	if h.inj != nil && h.sc.Faults.BacklogDrop > 0 {
		// Backlog admission loss (netif_rx-style). The NIC-fed first
		// stage swaps this for the ring gate in buildFlow.
		st.worker.Gate = func(*skb.SKB) bool { return !h.inj.DropBacklog() }
	}
	return st
}

// hostOpts carries the run's SKB pool and fabric-mode construction
// overrides; otherwise the zero value is the single-host default (private
// clock, private PktID sequence, unprefixed registry names).
type hostOpts struct {
	sched  *sim.Scheduler // non-nil: share an existing DES clock
	pool   *skb.Pool      // the run's SKB pool (nil: pooling disabled)
	pktSeq *uint64        // non-nil: share one PktID sequence across NICs
	obsPfx string
}

// buildHost constructs the complete topology for a scenario on the given
// SKB pool (nil: unpooled), attaching any probes after the topology is
// fully wired.
func buildHost(sc Scenario, pr Probes, pool *skb.Pool) *host {
	h := newHostShell(sc, pr, hostOpts{pool: pool})
	for f := 0; f < sc.Flows; f++ {
		h.buildFlow(f)
	}
	h.finish()
	return h
}

// newHostShell builds one host's cores, NIC and per-host subsystems —
// everything except the flows (built per flow index) and the final wiring
// pass (finish). Fabric runs call it once per host against a shared clock.
func newHostShell(sc Scenario, pr Probes, opt hostOpts) *host {
	sched := opt.sched
	if sched == nil {
		sched = sim.NewScheduler(sc.Seed)
	}
	h := &host{sc: sc, sched: sched, obsPfx: opt.obsPfx}
	h.tracer, h.prof, h.flight = pr.Tracer, pr.Causal, pr.Flight
	h.nicH = nicDeliverH{h}
	h.pool = opt.pool
	if sc.Faults.Enabled() {
		h.inj = fault.NewInjector(*sc.Faults, sc.Seed)
	}
	if sc.Overload.Enabled() {
		// Built before the flows so stage construction can wire the memory
		// account's release hook; the manager itself arms after armCausal.
		h.ov = newOvState(h, *sc.Overload)
	}
	cfg := sc.Costs
	total := sc.AppCores + sc.KernelCores
	h.cores = sim.NewCores(total, h.sched)
	for _, c := range h.cores[sc.AppCores:] {
		c.JitterAmp = cfg.JitterAmp
		c.InterferenceProb = cfg.InterferenceProb
		c.InterferenceMean = cfg.InterferenceMean
		if h.inj != nil {
			// Core-stall / IRQ-jitter faults ride the cores' existing
			// noise knobs: the stall probability adds to the calibrated
			// interference, and the stall mean widens it (a single
			// exponential process stands in for both sources).
			p := sc.Faults
			c.JitterAmp += p.IRQJitter
			c.InterferenceProb += p.StallProb
			if p.StallMean > c.InterferenceMean {
				c.InterferenceMean = p.StallMean
			}
		}
	}
	nicCfg := cfg.NIC
	nicCfg.Queues = sc.Flows
	h.nic = nic.New(nicCfg, h.sched)
	if opt.pktSeq != nil {
		h.nic.PktSeq = opt.pktSeq
	}
	if pr.Capture != nil && sc.WireMode {
		h.capture = pcap.NewWriter(pr.Capture)
	}

	if pr.CoreLog != nil {
		pr.CoreLog.Attach(h.cores...)
	}
	return h
}

// finish runs the post-flow wiring pass: recycle points, probes, overload
// arming, and queue-depth registration. It must run after every flow the
// host serves (or sends) has been built.
func (h *host) finish() {
	sc := h.sc
	// Wire the pool's recycle points now that the full topology exists:
	// final user-space delivery, TCP duplicate/prune discards, GRO-absorbed
	// segments, and splitting-queue rejections all return their skbs here.
	// With overload control wired the hooks are needed even without a pool
	// (every terminal point must release its memory charge), so they route
	// through the retire funnel.
	if h.pool != nil || h.ov != nil {
		put := h.retire
		for _, g := range h.gros {
			g.Recycle = put
		}
		for _, fp := range h.flows {
			fp.sock.Recycle = put
			if fp.tcpRx != nil {
				fp.tcpRx.Recycle = put
			}
			if fp.split != nil {
				fp.split.Recycle = put
			}
		}
	}

	// Causal probes wire last: their hooks chain after the recycle points
	// above (the profiler must close a record before the pool reuses the
	// skb) and after each flow's tracing tap. The overload manager arms
	// after them so its admission gates chain onto any fault gates and its
	// drops are visible to the probes.
	h.armCausal()
	h.armOverload()

	// Register queue-depth probes once the full topology exists: the NIC
	// descriptor rings, every softirq backlog (keyed by stage name and a
	// build-order index so parallel branches stay distinguishable), and
	// each flow's socket receive queue.
	if sc.Obs != nil {
		for q := 0; q < h.nic.Config().Queues; q++ {
			q := q
			sc.Obs.SampleQueue(fmt.Sprintf("%snic_ring%d", h.obsPfx, q), func() int { return h.nic.RingDepth(q) })
		}
		for i, st := range h.stages {
			sc.Obs.SampleQueue(fmt.Sprintf("%sbacklog:%s#%d", h.obsPfx, st.name, i), st.worker.Len)
		}
		for i, fp := range h.flows {
			sc.Obs.SampleQueue(fmt.Sprintf("%ssocket:flow%d", h.obsPfx, i+1), fp.sock.Worker().Len)
		}
	}
}

// buildFlow wires flow f's receive pipeline and its sender(s) on this one
// host — the classic single-host path.
func (h *host) buildFlow(f int) {
	fp := h.buildFlowRx(f, uint64(f+1))
	if h.sc.NoTraffic {
		return
	}
	h.buildFlowTx(f, fp, nil)
}

// buildFlowRx wires a flow's receive pipeline. f is the host-local flow
// index (queue pinning, core placement); id is the flow's run-wide wire
// identity — they coincide on a single host, while fabric hosts receive an
// arbitrary subset of the global flow space.
func (h *host) buildFlowRx(f int, id uint64) *flowPath {
	sc := h.sc
	cfg := sc.Costs
	fp := &flowPath{id: id}
	h.flows = append(h.flows, fp)
	h.nic.PinFlow(fp.id, f)

	// Socket: the app receive thread. MFLOW's TCP full-path config merges
	// before the TCP layer and runs TCP processing in the delivery thread
	// (tcp_recvmsg), so its socket charges TCP + copy.
	copyCost := cfg.Copy
	sockCap := 0
	if sc.Proto == skb.UDP {
		sockCap = udpBacklogCap * 2
	}
	if sc.System == steering.MFlow && sc.Proto == skb.TCP {
		copyCost = cfg.Copy.Add(cfg.TCPRx)
	}
	fp.sock = proto.NewSocket(sc.Proto, h.acore(f), h.sched, copyCost, sockCap)
	for i := 1; i < sc.CopyThreads; i++ {
		fp.sock.AddCopyThread(h.cores[(f+i)%sc.AppCores], copyCost, sockCap)
	}
	if h.inj != nil && sc.Proto == skb.UDP && sc.Faults.SockDrop > 0 {
		// Socket receive-queue loss (rmem pressure). UDP only: a TCP
		// socket never drops in-order data it has implicitly acked — it
		// shrinks the advertised window instead, which the sender's
		// outstanding limit already models.
		fp.sock.Gate(func(*skb.SKB) bool { return !h.inj.DropSock() })
	}
	if fp.probe = h.newProbe("socket", "drop-sock", sc.Obs); fp.probe != nil {
		// User-space delivery is the pipeline's final stage: its latency
		// since NIC arrival is recorded per wire segment, so histogram
		// counts line up with delivered segment counts.
		p, app := fp.probe, h.acore(f).ID
		fp.sock.Tap = func(s *skb.SKB, at sim.Time) { p.deliver(s, at, app) }
	}

	var first *stage
	if sc.System == steering.MFlow {
		first = h.buildMFlowFlow(f, fp)
	} else {
		first = h.buildPlannedFlow(f, fp)
	}
	h.nic.AttachDriver(f, first.worker)
	first.ringFed = true
	if h.inj != nil {
		// The driver worker's queue is the NIC descriptor ring: its
		// admission gate is the ring-drop point, not a backlog one (undo
		// any backlog gate newStageT installed).
		first.worker.Gate = nil
		if sc.Faults.RingDrop > 0 {
			first.worker.Gate = func(*skb.SKB) bool { return !h.inj.DropRing() }
		}
	}
	return fp
}

// buildFlowTx wires a flow's sender(s) on this host. A nil ingress builds
// the classic local chain into h.nic (encap accounting, wire faults, wire
// mode); fabric runs pass the cross-host chain (VTEP → underlay → remote
// NIC) instead, with fp belonging to the remote receiving host.
func (h *host) buildFlowTx(f int, fp *flowPath, ingress traffic.Ingress) {
	sc := h.sc
	cfg := sc.Costs
	overlay := isOverlay(sc.System, sc.Proto)

	if ingress == nil {
		ingress = h.nic
		if sc.Proto == skb.UDP && sc.UDPClients > 1 {
			// Several clients share the flow: sequence numbers only make
			// sense in NIC arrival order.
			ingress = &arrivalSeq{n: h.nic}
		}
		// The lossy-link tap sits between frame construction and NIC
		// arrival: in wire mode corruption flips real bytes (after the
		// builder attaches them, before the pcap capture sees them), and
		// dropped frames never consume an arrival sequence number.
		wrapFault := func(in traffic.Ingress) traffic.Ingress {
			if h.inj != nil && sc.Faults.WireActive() {
				return h.inj.Wrap(in)
			}
			return in
		}
		switch {
		case sc.WireMode:
			// Real bytes end to end; the builder also performs the
			// encapsulation accounting.
			if h.capture != nil {
				ingress = &captureTap{h: h, inner: ingress}
			}
			ingress = newWireBuilder(wrapFault(ingress), fp.id, overlay)
			fp.sock.Verify = wireVerify
		case overlay:
			ingress = encapIngress{wrapFault(ingress)}
		default:
			ingress = wrapFault(ingress)
		}
	}
	// Explicit sender-side pipeline: the sender's syscall work and the
	// egress chain replace the aggregate client-cost model.
	txWrap := func(base traffic.Ingress, app *sim.Core) traffic.Ingress {
		if !sc.ModelTX {
			return base
		}
		return txpath.New(app, h.newClientCore(), h.sched, txpath.DefaultCosts(), overlay, base)
	}
	clientCostTCP := cfg.TCPClient
	clientCostUDP := cfg.UDPClient
	if sc.ModelTX {
		// txpath charges the socket path itself; the sender keeps only a
		// residual per-call overhead.
		clientCostTCP = traffic.ClientCost{PerSeg: 8}
		clientCostUDP = traffic.ClientCost{PerSeg: 8}
	}
	if sc.Proto == skb.TCP {
		appCore := h.newClientCore()
		tx := &traffic.TCPSender{
			FlowID:   fp.id,
			MsgSize:  sc.MsgSize,
			Window:   sc.Window,
			Core:     appCore,
			Sched:    h.sched,
			Net:      txWrap(ingress, appCore),
			NetDelay: cfg.NetDelay,
			Cost:     clientCostTCP,
			Pool:     h.pool,
		}
		// Overload control drops packets too (admission budget, AQM,
		// pressure gates), so it needs the reliable sender for the same
		// reason fault injection does: an unrecovered hole deadlocks the
		// window. The fabric's underlay tail-drops as well.
		if h.inj != nil || h.ov != nil || sc.Fabric.Enabled() {
			tx.Reliable = true
			tx.InitialRTO = sc.Faults.RTOOrDefault()
			if fp.tcpRx != nil {
				// Dup ACKs ride the same (lossless) return path as
				// cumulative ACKs and steer fast retransmit at the
				// receiver's missing sequence.
				fp.tcpRx.DupAck = func(e uint64) {
					a := h.getAck()
					a.tx, a.end, a.dup = tx, e, true
					h.sched.AfterHandler(cfg.NetDelay+h.ackExtra, a, nil)
				}
				// The hole map that SACK blocks would carry on those
				// ACKs; the simulator queries the receiver's scoreboard
				// directly, so one recovery sweep repairs every known
				// hole per round trip.
				tx.Missing = fp.tcpRx.Missing
			}
		}
		fp.tcpTx = tx
		fp.sock.Ack = func(end uint64, _ sim.Time) {
			a := h.getAck()
			a.tx, a.end = tx, end
			h.sched.AfterHandler(cfg.NetDelay+h.ackExtra, a, nil)
		}
		h.sched.At(0, tx.Start)
		fp.stops = append(fp.stops, tx.Stop)
	} else {
		seq := &traffic.SeqAlloc{}
		for c := 0; c < sc.UDPClients; c++ {
			appCore := h.newClientCore()
			tx := &traffic.UDPSender{
				FlowID:   fp.id,
				MsgSize:  sc.MsgSize,
				Core:     appCore,
				Sched:    h.sched,
				Net:      txWrap(ingress, appCore),
				NetDelay: cfg.NetDelay,
				Cost:     clientCostUDP,
				Seq:      seq,
				MsgBase:  uint64(c) << 40,
				Pool:     h.pool,
			}
			h.sched.At(0, tx.Start)
			fp.stops = append(fp.stops, tx.Stop)
		}
	}
}

// tailFor returns the delivery function terminating a pipeline: transport
// bookkeeping (ordering for TCP, reordering stats for UDP) then the socket
// queue. core is the CPU context the transport bookkeeping runs in.
func (h *host) tailFor(fp *flowPath, core *sim.Core) func(*skb.SKB, sim.Time) {
	if h.sc.Proto == skb.TCP {
		fp.tcpRx = &proto.TCPReceiver{
			OOOQueueCost: h.sc.Costs.OOOQueue,
			Deliver: func(s *skb.SKB) {
				if !fp.sock.Enqueue(s) {
					h.dropSock(fp, s)
				}
			},
		}
		if h.inj != nil {
			fp.tcpRx.OFOCap = h.sc.Faults.OFOCapOrDefault()
		}
		return func(s *skb.SKB, _ sim.Time) { fp.tcpRx.Rx(s, core) }
	}
	fp.udpRx = &proto.UDPReceiver{
		Deliver: func(s *skb.SKB) {
			if !fp.sock.Enqueue(s) {
				h.dropSock(fp, s)
			}
		},
	}
	return func(s *skb.SKB, _ sim.Time) { fp.udpRx.Rx(s, core) }
}

// dropSock retires a skb rejected at the socket receive queue: the probes
// observe the loss, then the skb returns to the pool.
func (h *host) dropSock(fp *flowPath, s *skb.SKB) {
	if fp.probe != nil {
		fp.probe.drop(s)
	}
	h.retire(s)
}

// armCausal attaches the run's causal profiler and/or anomaly flight
// recorder to the components outside the stages (whose probes carry both
// from construction). Every hook below is a plain func field on the probed
// component: unprobed runs keep them nil and pay nothing; probed runs only
// observe, never alter behaviour.
func (h *host) armCausal() {
	p, fr := h.prof, h.flight
	if p == nil && fr == nil {
		return
	}
	if fr != nil {
		// Per-core execution rings chain onto any CoreLog already attached.
		fr.Attach(h.cores...)
	}
	h.nic.OnDrop = h.newProbe("nic-ring", "drop-ring", nil).drop
	split := h.newProbe("split-queue", "drop-split", nil)
	for _, fp := range h.flows {
		fp := fp
		if p != nil {
			for _, w := range fp.sock.Workers() {
				w.ServeLog = func(s *skb.SKB, start, end sim.Time) {
					p.MarkServe(s, start, end)
				}
			}
		}
		if fp.reasm != nil {
			if p != nil {
				fp.reasm.OnDeliver = func(head *skb.SKB, blame uint64) {
					p.MarkBlame(head, "reassembler", h.sched.Now(), blame)
				}
			}
			if fr != nil {
				fp.reasm.OnHoleReleased = func(head *skb.SKB) {
					fr.Trigger("gap-timeout", head.PktID, head.FlowID, h.sched.Now())
				}
			}
		}
		if fp.tcpRx != nil && p != nil {
			fp.tcpRx.OnDeliverParked = func(parked, filler *skb.SKB) {
				p.MarkBlame(parked, "tcp-ofo", h.sched.Now(), filler.PktID)
			}
			prevRecycle := fp.tcpRx.Recycle
			fp.tcpRx.Recycle = func(s *skb.SKB) {
				p.Drop(s, h.sched.Now(), "tcp-dup")
				if prevRecycle != nil {
					prevRecycle(s)
				}
			}
		}
		if fp.split != nil {
			if p != nil {
				fp.split.OnIdleWake = p.NoteIdleWake
			}
			prevRecycle := fp.split.Recycle
			fp.split.Recycle = func(s *skb.SKB) {
				split.drop(s)
				if prevRecycle != nil {
					prevRecycle(s)
				}
			}
		}
		if fr != nil {
			if prevVerify := fp.sock.Verify; prevVerify != nil {
				fp.sock.Verify = func(s *skb.SKB) error {
					err := prevVerify(s)
					if err != nil {
						fr.Trigger("corruption", s.PktID, s.FlowID, h.sched.Now())
					}
					return err
				}
			}
			if fp.tcpTx != nil {
				id := fp.id
				fp.tcpTx.OnRTO = func() {
					fr.Trigger("rto", 0, id, h.sched.Now())
				}
			}
		}
	}
	if p != nil {
		for _, g := range h.gros {
			prevRecycle := g.Recycle
			g.Recycle = func(s *skb.SKB) {
				p.Absorb(s)
				if prevRecycle != nil {
					prevRecycle(s)
				}
			}
		}
	}
}

// armFaultRecovery relaxes a flow's reassembler for fault-injected runs:
// holes are tolerated (losses are skipped over, retransmissions return as
// stale micro-flows and are delivered out of band for the TCP layer to
// re-order) and the gap timer bounds how long the merger can stall on a
// hole. No-op without an injector or fabric (whose underlay tail-drops can
// punch holes too), so lossless runs keep the strict contiguity invariant.
func (h *host) armFaultRecovery(fp *flowPath) {
	if (h.inj == nil && !h.sc.Fabric.Enabled()) || fp.reasm == nil {
		return
	}
	fp.reasm.AllowGaps = true
	fp.reasm.GapTimeout = h.sc.Faults.GapTimeoutOrDefault()
	explicitGap := h.sc.Faults != nil && h.sc.Faults.GapTimeout != 0
	if h.sc.Proto == skb.TCP && !explicitGap {
		// TCP restores order downstream (the receiver's out-of-order
		// queue), so an over-eager release costs only some re-parking —
		// while every microsecond the merger stalls delays the duplicate
		// ACKs that drive loss recovery. Default far tighter than UDP,
		// where a release turns straight into out-of-order delivery.
		fp.reasm.GapTimeout = h.sc.Faults.GapTimeoutOrDefault() / 8
	}
	fp.reasm.Sched = h.sched
}

// addStageDevices fills a stage's device lists for one plan stage.
func (h *host) addStageDevices(st *stage, fp *flowPath, stg steering.Stage, overlay bool) {
	cfg := h.sc.Costs
	switch stg {
	case steering.StageAlloc:
		st.pre = append(st.pre, dev("alloc", cfg.Alloc))
	case steering.StageGRO:
		if h.sc.Proto == skb.TCP {
			gcost := cfg.GRONative
			if overlay {
				gcost = cfg.GROOverlay
			}
			st.pre = append(st.pre, dev("gro", gcost))
			st.gro = gro.New()
			h.gros = append(h.gros, st.gro)
		} else {
			st.pre = append(st.pre, dev("gro", cfg.GROLookupUDP))
		}
		if overlay {
			st.post = append(st.post, dev("ip", cfg.OuterIPUDP))
		}
	case steering.StageVXLAN:
		st.post = append(st.post, fp.vxDevice(cfg))
	case steering.StageInner:
		if overlay {
			st.post = append(st.post,
				dev("bridge", cfg.Bridge),
				dev("veth", cfg.Veth))
		}
		st.post = append(st.post, dev("ip", cfg.InnerIP))
		if h.sc.Proto == skb.TCP {
			st.post = append(st.post, dev("tcp", cfg.TCPRx))
		} else {
			st.post = append(st.post, dev("udp", cfg.UDPRx))
		}
		st.post = append(st.post, dev("sock", cfg.SockEnq))
	}
}

// vxDevice lazily creates the flow's VxLAN tunnel endpoint device.
func (fp *flowPath) vxDevice(cfg *CostModel) *netdev.Device {
	if fp.vx == nil {
		fp.vx = &netdev.VXLAN{VNI: uint32(fp.id)}
	}
	return fp.vx.RxDevice(cfg.VXLAN)
}

// isOverlay reports whether packets of this system/protocol arrive
// encapsulated (Slim bypasses the overlay for TCP only).
func isOverlay(sys steering.System, proto skb.Proto) bool {
	if sys == steering.Native {
		return false
	}
	if sys == steering.Slim && proto == skb.TCP {
		return false
	}
	return true
}

// falconClasses partitions kernelCores across a handoff plan's stage
// groups: VxLAN classes get exactly one core (one host-wide device), other
// classes share the remainder proportionally to rough stage weights.
func falconClasses(plan steering.Plan, kernelCores int) (starts, sizes []int) {
	ng := len(plan.Groups)
	starts = make([]int, ng)
	sizes = make([]int, ng)
	weights := make([]int, ng)
	wsum := 0
	spare := kernelCores
	for i, g := range plan.Groups {
		vx := false
		w := 1
		for _, stg := range g.Stages {
			if stg == steering.StageVXLAN {
				vx = true
			}
			if stg == steering.StageAlloc || stg == steering.StageGRO {
				w = 2
			}
		}
		if vx {
			sizes[i] = 1
			spare--
		} else {
			weights[i] = w
			wsum += w
		}
	}
	for i := range sizes {
		if sizes[i] == 0 && wsum > 0 {
			sizes[i] = spare * weights[i] / wsum
			if sizes[i] < 1 {
				sizes[i] = 1
			}
		}
	}
	off := 0
	for i := range sizes {
		starts[i] = off
		off += sizes[i]
	}
	return starts, sizes
}

// buildPlannedFlow realizes a static placement plan (native, vanilla, RPS,
// FALCON, Slim) and returns the first stage (the NIC driver softirq).
func (h *host) buildPlannedFlow(f int, fp *flowPath) *stage {
	sc := h.sc
	cfg := sc.Costs
	plan := steering.PlanFor(sc.System, sc.Proto)
	overlay := isOverlay(sc.System, sc.Proto)
	base := h.baseFor(f, overlay)
	cap := 0
	if sc.Proto == skb.UDP {
		cap = udpBacklogCap
	}

	// FALCON pins device classes to cores: the kernel-core pool is
	// partitioned per stage group and flow f's group-i softirq runs on a
	// core of class i. Device classes have unequal weights, which is the
	// source of FALCON's uneven per-core load (paper Fig. 12). The other
	// plans place groups at flow-relative offsets.
	// FALCON pins device classes to cores. The VxLAN device is one
	// host-wide device whose softirq lands on a single core for every
	// flow — precisely the paper's critique: a heavy device still
	// saturates one core. The remaining classes partition the rest of
	// the kernel pool, weighted by their rough stage cost so the heavy
	// first softirq gets more cores.
	starts, sizes := falconClasses(plan, sc.KernelCores)
	coreFor := func(i int, g steering.Group) *sim.Core {
		if !plan.Handoff {
			return h.kcore(base + g.CoreOff)
		}
		return h.kcore(starts[i] + f%sizes[i])
	}

	n := len(plan.Groups)
	stages := make([]*stage, n)
	for i := n - 1; i >= 0; i-- {
		g := plan.Groups[i]
		coreC := coreFor(i, g)
		wake := sim.Duration(sameCoreWake)
		if i > 0 && coreFor(i-1, plan.Groups[i-1]) != coreC {
			wake = cfg.BacklogWake
		}
		st := h.newStageT(fmt.Sprintf("%s-g%d", sc.System, i), coreC, cap, wake)
		preGRO := false
		for _, stg := range g.Stages {
			h.addStageDevices(st, fp, stg, overlay)
			if stg == steering.StageAlloc {
				preGRO = true
			}
			if stg == steering.StageGRO {
				preGRO = false
			}
		}
		if i < n-1 {
			switch {
			case plan.Handoff:
				st.handoff = cfg.HandoffPerSKB
				if preGRO && plan.PreGROHandoff {
					st.handoff += cfg.HandoffPreGROExtra
				}
			case sc.System == steering.RPS && i == 0:
				st.handoff = cfg.RPSSteer
			}
			next := stages[i+1]
			st.out = next.feed()
		} else {
			st.out = h.tailFor(fp, coreC)
		}
		stages[i] = st
		h.stages = append(h.stages, st)
	}
	return stages[0]
}
