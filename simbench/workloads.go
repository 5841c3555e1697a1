package main

import (
	"fmt"

	"mflow/internal/causal"
	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// A job is one scenario of a workload's matrix. Every repetition reuses
// the job: its scenario is a value no run mutates, and probes are made
// afresh for each run.
type job struct {
	// key names the scenario in spans, audit failures and pprof labels.
	key string
	sc  overlay.Scenario
	// probed attaches a fresh obs registry and causal profiler per run.
	probed bool
}

// singleHost reports whether overlay.NewStack can build the job's topology.
func (j job) singleHost() bool { return !j.sc.Fabric.Enabled() }

// run executes the job once through the public entry points and returns
// its result with the causal profiler's violation count (zero unprobed).
func (j job) run() (*overlay.Result, uint64) {
	if !j.probed {
		return overlay.Run(j.sc), 0
	}
	sc := j.sc
	sc.Obs = obs.New()
	pr := overlay.Probes{Causal: causal.NewProfiler()}
	return overlay.RunProbed(sc, pr), pr.Causal.Violations()
}

// workload is a named scenario matrix. Every scenario's Seed is the
// benchmark's -seed.
type workload struct {
	name   string
	matrix func(seed uint64) []job
}

var workloads = []workload{
	{"tcp-multiflow", tcpMultiflow},
	{"udp-small-msg", udpSmallMsg},
	{"wire-chaos-probed", wireChaosProbed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tcpMultiflow is the Fig. 10/12 shape: 10 kernel cores, 5 app cores,
// synthetic bytes, no probes. It drives a deep event heap, GRO merging,
// TCP ACK clocking and MFLOW reassembly.
func tcpMultiflow(seed uint64) []job {
	var jobs []job
	for _, size := range []int{16, 4096, 65536} {
		for _, flows := range []int{1, 10, 20} {
			for _, sys := range []steering.System{steering.Vanilla, steering.FalconDev, steering.MFlow} {
				sc := overlay.Scenario{
					System: sys, Proto: skb.TCP, MsgSize: size, Flows: flows,
					KernelCores: 10, AppCores: 5, Seed: seed,
				}
				jobs = append(jobs, job{key: sc.Name(), sc: sc})
			}
		}
	}
	return jobs
}

// udpSmallMsg is the per-packet path: no GRO, one skb per message, with
// the paper's three saturating clients and an overdriven six.
func udpSmallMsg(seed uint64) []job {
	var jobs []job
	for _, size := range []int{16, 1024} {
		for _, sys := range steering.Systems {
			for _, clients := range []int{3, 6} {
				sc := overlay.Scenario{
					System: sys, Proto: skb.UDP, MsgSize: size, Flows: 1,
					UDPClients: clients, Seed: seed,
				}
				jobs = append(jobs, job{key: fmt.Sprintf("%s/clients=%d", sc.Name(), clients), sc: sc})
			}
		}
	}
	return jobs
}

// wireChaosProbed carries real frames through every fault plan with obs
// and causal probes attached, plus two-host fabric runs under random loss.
func wireChaosProbed(seed uint64) []job {
	// "none" is not a chaos profile, so it selects a nil plan: no faults.
	plans := []string{"none", "random", "burst"}
	var jobs []job
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
			for _, plan := range plans {
				sc := overlay.Scenario{
					System: sys, Proto: proto, MsgSize: 65536, Flows: 1, WireMode: true,
					Faults: fault.ChaosProfiles()[plan], Seed: seed,
				}
				jobs = append(jobs, job{key: fmt.Sprintf("%s/faults=%s", sc.Name(), plan), sc: sc, probed: true})
			}
		}
	}
	for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
		sc := overlay.Scenario{
			System: sys, Proto: skb.TCP, MsgSize: 65536, WireMode: true, Flows: 2,
			Faults: fault.ChaosProfiles()["random"],
			Fabric: &fabric.Config{Hosts: 2}, Seed: seed,
		}
		jobs = append(jobs, job{key: fmt.Sprintf("%s/faults=random/hosts=2", sc.Name()), sc: sc, probed: true})
	}
	return jobs
}
