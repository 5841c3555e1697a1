package overlay

import (
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/harness"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// withPoolDisabled runs f with run recycling (skb pool, tx event pool,
// lent queue buffers) switched off process-wide, restoring the previous
// state afterwards. Package tests run sequentially, so flipping the package
// variable is safe.
func withPoolDisabled(f func()) {
	prev := disablePool
	disablePool = true
	defer func() { disablePool = prev }()
	f()
}

// TestPoolingDoesNotChangeResults is the pool's correctness oracle: a pooled
// run and an allocation-per-skb run of the same scenario must produce
// bit-identical fingerprints — throughput, latency quantiles, CPU samples
// and the full obs snapshot. Pool.Get returns fully zeroed SKBs and nothing
// in the simulation observes pointer identity, so recycling must be
// invisible.
func TestPoolingDoesNotChangeResults(t *testing.T) {
	type cell struct {
		sys   steering.System
		proto skb.Proto
	}
	cells := []cell{
		{steering.Vanilla, skb.TCP},
		{steering.Vanilla, skb.UDP},
		{steering.MFlow, skb.TCP},
		{steering.MFlow, skb.UDP},
	}
	if !testing.Short() {
		cells = cells[:0]
		for _, sys := range steering.ExtendedSystems {
			for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
				cells = append(cells, cell{sys, proto})
			}
		}
	}
	for _, c := range cells {
		pooled := Run(determinismScenario(c.sys, c.proto)).Fingerprint()
		var unpooled string
		withPoolDisabled(func() {
			unpooled = Run(determinismScenario(c.sys, c.proto)).Fingerprint()
		})
		if pooled != unpooled {
			t.Errorf("%s/%s: pooled run diverged from unpooled:\n--- pooled ---\n%s\n--- unpooled ---\n%s",
				c.sys, c.proto, pooled, unpooled)
		}
	}
}

// Fault-injected paths recycle at extra points (duplicate discards, OFO
// pruning, corrupt-drop), so pin pooled/unpooled equality there too.
func TestPoolingDoesNotChangeFaultResults(t *testing.T) {
	plan := fault.ChaosProfiles()["random"]
	mk := func() Scenario {
		sc := determinismScenario(steering.MFlow, skb.TCP)
		sc.Faults = plan
		return sc
	}
	pooled := Run(mk()).Fingerprint()
	var unpooled string
	withPoolDisabled(func() { unpooled = Run(mk()).Fingerprint() })
	if pooled != unpooled {
		t.Errorf("fault-injected pooled run diverged from unpooled:\n--- pooled ---\n%s\n--- unpooled ---\n%s",
			pooled, unpooled)
	}
}

// dirtyRecycledPools runs a wire-mode TCP run under the "random" chaos plan
// (stale bytes, frag chains still held by in-flight skbs, duplicate clones,
// tx events and queued skbs still in flight at the horizon) and a 2-host
// wire fabric run, so the arena the run cache hands out next has served
// runs that left it as messy as a run can.
func dirtyRecycledPools() {
	chaos := wireQuick(steering.MFlow, skb.TCP)
	chaos.Faults = fault.ChaosProfiles()["random"]
	Run(chaos)
	fab := wireQuick(steering.MFlow, skb.TCP)
	fab.Flows = 2
	fab.Fabric = &fabric.Config{Hosts: 2}
	Run(fab)
}

// idleArena returns the arena the run cache hands out next.
func idleArena(t *testing.T) *runArena {
	t.Helper()
	recycled.mu.Lock()
	defer recycled.mu.Unlock()
	if len(recycled.idle) == 0 {
		t.Fatal("run cache holds no idle arena")
	}
	return recycled.idle[len(recycled.idle)-1]
}

// checkServed fails unless every part of a has served a TCP run: the skb
// pool and the tx event pool allocated, and queue buffers came back.
func checkServed(t *testing.T, name string, a *runArena) {
	t.Helper()
	if a.pool.Allocs == 0 || a.evts.Allocs == 0 || a.bufs.Idle() == 0 {
		t.Fatalf("%s: the idle arena never served a run (skb allocs %d, event allocs %d, idle buffers %d)",
			name, a.pool.Allocs, a.evts.Allocs, a.bufs.Idle())
	}
}

// TestRecycledPoolsDoNotChangeResults is the cross-run recycling oracle:
// every run of a matrix drawn from a dirtied, recycled arena must
// fingerprint-equal the same scenario run with recycling disabled, serially
// and twice over under the parallel harness.
func TestRecycledPoolsDoNotChangeResults(t *testing.T) {
	type cell struct {
		name string
		mk   func() Scenario
	}
	var cells []cell
	for _, sys := range []steering.System{steering.Vanilla, steering.MFlow} {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			name := sys.String() + "/" + proto.String()
			cells = append(cells,
				cell{name, func() Scenario { return determinismScenario(sys, proto) }},
				cell{name + "/wire", func() Scenario { return wireQuick(sys, proto) }})
		}
	}
	cells = append(cells, cell{"mflow/TCP/wire/fabric-2", func() Scenario {
		sc := wireQuick(steering.MFlow, skb.TCP)
		sc.Flows = 2
		sc.Fabric = &fabric.Config{Hosts: 2}
		return sc
	}})

	dirtyRecycledPools()
	serial := make([]string, len(cells))
	for i, c := range cells {
		a := idleArena(t)
		checkServed(t, c.name, a)
		puts := a.pool.Puts
		serial[i] = Run(c.mk()).Fingerprint()
		if a.pool.Puts == puts {
			t.Errorf("%s: the run did not draw the recycled arena", c.name)
		}
		if idleArena(t) != a {
			t.Errorf("%s: the run did not return its arena to the cache", c.name)
		}
		if a.bufs.Idle() == 0 {
			t.Errorf("%s: the run gave no queue buffer back", c.name)
		}
		var unpooled string
		withPoolDisabled(func() { unpooled = Run(c.mk()).Fingerprint() })
		if serial[i] != unpooled {
			t.Errorf("%s: run on a recycled arena diverged from unrecycled:\n--- recycled ---\n%s\n--- unrecycled ---\n%s",
				c.name, serial[i], unpooled)
		}
	}

	twice := append(append([]cell(nil), cells...), cells...)
	parallel := harness.Map(4, twice, func(_ int, c cell) string { return Run(c.mk()).Fingerprint() })
	for i, fp := range parallel {
		if want := serial[i%len(cells)]; fp != want {
			t.Errorf("%s (parallel pass %d): diverged from the serial pass:\n--- parallel ---\n%s\n--- serial ---\n%s",
				twice[i].name, i/len(cells)+1, fp, want)
		}
	}
}

// TestPoolRecyclesDuringRun proves the pool is actually in the loop: over a
// full run, recycling must outpace fresh allocation (the steady state runs
// on recycled SKBs; Allocs only tracks the high-water mark of in-flight
// buffers), and recycled SKBs must be re-issued, not just parked.
func TestPoolRecyclesDuringRun(t *testing.T) {
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		sc := determinismScenario(steering.MFlow, proto).withDefaults()
		h := buildHost(sc, Probes{}, newArena())
		h.run()
		if h.pool == nil {
			t.Fatalf("%s: host built without a pool", proto)
		}
		if h.pool.Puts <= h.pool.Allocs {
			t.Errorf("%s: %d Puts vs %d fresh allocations — recycling is not carrying the steady state",
				proto, h.pool.Puts, h.pool.Allocs)
		}
		if reused := h.pool.Puts - uint64(h.pool.Free()); reused == 0 {
			t.Errorf("%s: recycled SKBs were never re-issued", proto)
		}
	}
}

// TestEndToEndAllocCeiling pins each system's whole-run allocation count
// under a generous ceiling (~5x the measured steady state), so an engine
// change that reintroduces per-event or per-skb allocation fails loudly
// rather than silently doubling GC pressure. Exact numbers live in
// BenchmarkEndToEnd; this is only a tripwire.
func TestEndToEndAllocCeiling(t *testing.T) {
	const ceiling = 25_000 // measured: 450–5100 allocs/run across the matrix
	for _, sys := range steering.Systems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			sc := Scenario{
				System: sys, Proto: proto, MsgSize: 65536,
				Warmup: 5e5, Measure: 1e6,
				Seed: 42,
			}
			avg := testing.AllocsPerRun(1, func() { Run(sc) })
			if avg > ceiling {
				t.Errorf("%s/%s: %.0f allocs per run, ceiling %d", sys, proto, avg, ceiling)
			}
		}
	}
}

// BenchmarkEndToEnd runs one short full-topology scenario per iteration for
// each steering system — the macro-level allocation and time budget the
// engine work targets (run with -benchmem; gated in CI via cmd/benchgate).
func BenchmarkEndToEnd(b *testing.B) {
	for _, sys := range steering.Systems {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			b.Run(sys.String()+"/"+proto.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc := Scenario{
						System: sys, Proto: proto, MsgSize: 65536,
						Warmup: 5e5, Measure: 1e6, // 0.5ms + 1ms simulated
						Seed: 42,
					}
					if Run(sc) == nil {
						b.Fatal("nil result")
					}
				}
			})
		}
	}
}
