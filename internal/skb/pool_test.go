package skb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// A pool retains a run's whole working set, so every byte an SKB grows is
// resident memory: the struct stays at 256 bytes, which makes a slab
// exactly 64 KiB.
func TestSKBSize(t *testing.T) {
	if n := unsafe.Sizeof(SKB{}); n > 256 {
		t.Errorf("SKB is %d bytes, want at most 256", n)
	}
}

func TestPoolReusesAndZeroes(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	if p.Allocs != 1 {
		t.Fatalf("Allocs = %d after first Get, want 1", p.Allocs)
	}
	s.FlowID = 7
	s.Seq = 99
	s.Segs = 3
	s.MsgEnd = true
	s.LastStage = "gro"
	s.Data = []byte{1, 2, 3}
	p.Put(s)
	if p.Puts != 1 || p.Free() != 1 {
		t.Fatalf("Puts = %d, Free = %d after Put, want 1 and 1", p.Puts, p.Free())
	}

	s2 := p.Get()
	if s2 != s {
		t.Fatal("Get did not reuse the recycled SKB")
	}
	if p.Allocs != 1 {
		t.Errorf("Allocs = %d after reuse, want still 1", p.Allocs)
	}
	if p.Free() != 0 {
		t.Errorf("Free = %d after reuse, want 0", p.Free())
	}
	// Reuse must be logically indistinguishable from a fresh allocation:
	// every field zeroed, no matter what the previous owner (or the
	// poisoner) left. Only buffer capacity (arena, frag slice) survives.
	if !logicallyZero(s2) {
		t.Errorf("Get returned a non-zeroed SKB: %+v", s2)
	}
}

// logicallyZero reports whether the SKB is indistinguishable from &SKB{}
// to any reader of its logical state: all exported fields zero, no window,
// no frags. Retained capacity (arena bytes, frag slice capacity) is
// explicitly allowed — that is the pool's whole point.
func logicallyZero(s *SKB) bool {
	c := *s
	c.buf, c.off, c.frags = nil, 0, nil
	return len(s.Data) == 0 && len(s.frags) == 0 && s.off == 0 &&
		reflect.DeepEqual(c, SKB{Data: c.Data})
}

// Arena capacity survives Put/Get so the wire-mode steady state allocates
// nothing: a recycled SKB Reserves into the same backing array.
func TestPoolRetainsArenaAcrossReuse(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	s.Reserve(50, 1400)
	copy(s.Put(3), []byte{1, 2, 3})
	arena := &s.buf[0]
	p.Put(s)

	s2 := p.Get()
	if s2 != s {
		t.Fatal("Get did not reuse the recycled SKB")
	}
	if !logicallyZero(s2) {
		t.Fatalf("recycled SKB not logically zero: %+v", s2)
	}
	s2.Reserve(50, 1400)
	if &s2.buf[0] != arena {
		t.Error("Reserve after reuse did not reuse the retained arena")
	}
}

// Put reclaims the arenas GRO chained onto a head (the absorbed SKBs'
// backing arrays) and Get re-arms arena-less SKBs from that reserve, so
// merge-heavy steady states stay allocation-free too.
func TestPoolReclaimsFragArenas(t *testing.T) {
	p := &Pool{}
	head, tail := p.Get(), p.Get()
	head.Proto, tail.Proto = TCP, TCP
	head.Segs, tail.Segs = 1, 1
	tail.Seq = 1
	head.Reserve(0, 4)
	copy(head.Put(4), "abcd")
	tail.Reserve(0, 4)
	copy(tail.Put(4), "efgh")
	tailArena := &tail.buf[0]

	head.Merge(tail)
	if tail.Data != nil || tail.buf != nil {
		t.Fatal("Merge left bytes on the absorbed SKB")
	}
	p.Put(tail) // GRO recycles the absorbed skb: no arena to reclaim
	p.Put(head) // terminal Put reclaims both head arena and chained arena
	if len(p.arenas) != 1 {
		t.Fatalf("pool reclaimed %d chained arenas, want 1", len(p.arenas))
	}

	// The arena-less SKB (tail went in bufferless) gets re-armed from the
	// reclaimed reserve on the next Get that needs one.
	var reArmed bool
	for i := 0; i < 2; i++ {
		s := p.Get()
		if s.buf != nil && &s.buf[0] == tailArena {
			reArmed = true
		}
	}
	if !reArmed {
		t.Error("no recycled SKB was re-armed with the reclaimed arena")
	}
}

func TestPoolDataDroppedOnPut(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	s.Data = []byte{0xaa, 0xbb}
	p.Put(s)
	if got := p.Get(); got.Data != nil {
		t.Errorf("recycled SKB still holds wire bytes: %v", got.Data)
	}
}

// All Pool methods tolerate a nil receiver, so components can be wired with
// no pool at all and still call Get/Put unconditionally.
func TestPoolNilReceiver(t *testing.T) {
	var p *Pool
	s := p.Get()
	if s == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.Put(s) // must not panic
	p.Reset()
	if p.Free() != 0 {
		t.Errorf("nil pool Free = %d, want 0", p.Free())
	}
}

func TestPoolPutNil(t *testing.T) {
	p := &Pool{}
	p.Put(nil)
	if p.Puts != 0 || p.Free() != 0 {
		t.Errorf("Put(nil) counted: Puts = %d, Free = %d, want 0 and 0", p.Puts, p.Free())
	}
}

// checkReset asserts Reset's contract on p: the freelist holds exactly the
// SKBs p allocated, each once (so a Clone that was Put is dropped), and no
// arena has two owners among the freelist's arenas, their frag chains and
// the reclaimed reserve, compared by first-byte address. Debug builds also
// require every reclaimed arena byte to be poisoned.
func checkReset(t testing.TB, p *Pool) {
	t.Helper()
	if uint64(len(p.free)) != p.Allocs {
		t.Fatalf("Reset left %d SKBs on the freelist, pool allocated %d", len(p.free), p.Allocs)
	}
	allocated := make(map[*SKB]bool)
	for i, slab := range p.slabs {
		if i == len(p.slabs)-1 {
			slab = slab[:p.used]
		}
		for j := range slab {
			allocated[&slab[j]] = true
		}
	}
	onFree := make(map[*SKB]bool, len(p.free))
	owner := make(map[*byte]string)
	claim := func(a []byte, who string) {
		if cap(a) == 0 {
			return
		}
		first := &a[:1][0]
		if prev, ok := owner[first]; ok {
			t.Fatalf("arena %p owned by both %s and %s", first, prev, who)
		}
		owner[first] = who
		if PoisonEnabled {
			for j, b := range a[:cap(a)] {
				if b != PoisonByte {
					t.Fatalf("%s byte %d = %#x after Reset, want PoisonByte", who, j, b)
				}
			}
		}
	}
	for i, s := range p.free {
		if !allocated[s] {
			t.Fatalf("free[%d] was not allocated by the pool", i)
		}
		if onFree[s] {
			t.Fatalf("free[%d] is on the freelist twice", i)
		}
		onFree[s] = true
		claim(s.buf, fmt.Sprintf("free[%d].buf", i))
		for j, f := range s.frags {
			claim(f.arena, fmt.Sprintf("free[%d].frags[%d]", i, j))
		}
	}
	for i, a := range p.arenas {
		claim(a, fmt.Sprintf("arenas[%d]", i))
	}
}

// TestPoolResetRandomized ends random runs of Get, Put, GRO Merge (the
// absorbed SKB Put or left live), Clone (the copy later Put into the pool
// or dropped), run links and plain leaks with Reset, and requires Reset's
// contract (checkReset) and that draining the freelist hands back only
// logically zero SKBs without a fresh allocation. Each pool serves several
// runs in a row, like the overlay's run cache.
func TestPoolResetRandomized(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &Pool{}
		for run := 0; run < 4; run++ {
			var live []*SKB
			take := func() *SKB {
				i := rng.Intn(len(live))
				s := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return s
			}
			for step := 0; step < 300; step++ {
				op := rng.Intn(7)
				if len(live) < 2 {
					op = 0
				}
				switch op {
				case 0, 1: // Get, with wire bytes half the time
					s := p.Get()
					s.FlowID, s.Seq, s.Segs, s.Proto = 1, uint64(step), 1, TCP
					s.CP = step
					if rng.Intn(2) == 0 {
						s.Reserve(rng.Intn(80), rng.Intn(2000))
						for j, b := 0, s.Put(rng.Intn(1500)); j < len(b); j++ {
							b[j] = byte(j + 1)
						}
					}
					live = append(live, s)
				case 2: // terminal Put
					p.Put(take())
				case 3: // GRO merge; the absorbed SKB is Put or leaks
					head, other := take(), take()
					head.Merge(other)
					live = append(live, head)
					if rng.Intn(2) == 0 {
						p.Put(other)
					} else {
						live = append(live, other)
					}
				case 4: // Clone, the copy enters the run like a duplicate frame
					live = append(live, live[rng.Intn(len(live))].Clone())
				case 5: // emission-run link between two live SKBs
					a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
					a.SetNextRun(b, 5)
				case 6: // leak: the run drops its last reference
					take()
				}
			}
			p.Reset()
			checkReset(t, p)
			allocs := p.Allocs
			for n := len(p.free); n > 0; n-- {
				if s := p.Get(); !logicallyZero(s) {
					t.Fatalf("seed %d run %d: Get after Reset returned %+v", seed, run, s)
				}
			}
			if p.Allocs != allocs {
				t.Fatalf("seed %d run %d: draining the reset freelist allocated %d SKBs", seed, run, p.Allocs-allocs)
			}
			p.Reset()
		}
	}
}
