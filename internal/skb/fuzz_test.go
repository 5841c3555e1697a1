package skb

import (
	"bytes"
	"testing"
)

// refSKB is the naive copying reference model the arena implementation is
// checked against: the window and each chained frag are plain owned byte
// slices, and every operation copies. If the offset arithmetic in arena.go
// ever diverges from these semantics the fuzzer finds the byte where.
type refSKB struct {
	window []byte
	frags  [][]byte
}

func (r *refSKB) stream() []byte {
	out := append([]byte(nil), r.window...)
	for _, f := range r.frags {
		out = append(out, f...)
	}
	return out
}

// FuzzSKBArena drives random Reserve/Push/Pull/Put/TrimFront/Merge/Clone
// sequences against the copying reference model, asserting byte equality
// of the head window and the full logical stream after every operation,
// and periodically cycling the SKB through a Pool to check that reuse
// hands back a logically zero SKB and (in -race/skbdebug builds) that the
// full arena was poisoned. Clones are Put into the pool as foreign SKBs.
func FuzzSKBArena(f *testing.F) {
	f.Add([]byte{0, 50, 14, 3, 5, 1, 8, 2, 3, 4, 7, 6})
	f.Add([]byte{0, 0, 0, 3, 200, 1, 255, 5, 1, 1, 200, 6})
	f.Add([]byte{5, 10, 5, 10, 5, 10, 6, 2, 30, 7, 0, 1})
	f.Add(bytes.Repeat([]byte{3, 40, 2, 20, 1, 60, 4, 9}, 8))

	f.Fuzz(func(t *testing.T, ops []byte) { runArenaOps(t, ops, opPoolCycle+1) })
}

// FuzzPoolReset is FuzzSKBArena with one more op: Reset ends the "run"
// with the SKB still held, checking Reset's contract (checkReset) before
// the next Get. It is a separate
// target so FuzzSKBArena's committed corpus keeps decoding to the
// operations it was saved for.
func FuzzPoolReset(f *testing.F) {
	f.Add([]byte{0, 10, 20, 3, 90, 5, 40, 6, 5, 30, 8, 3, 10, 6, 8})
	f.Add([]byte{0, 50, 14, 3, 5, 5, 9, 8, 7, 0, 0, 3, 9, 5, 120, 6, 8, 8})

	f.Fuzz(func(t *testing.T, ops []byte) { runArenaOps(t, ops, opReset+1) })
}

// The op codes runArenaOps decodes, each byte taken modulo the number of
// ops its target enables. Their values are the corpus encoding: never
// renumber them.
const (
	opReserve = iota
	opPush
	opPull
	opPut
	opTrimFront
	opMerge
	opClone
	opPoolCycle
	opReset
)

// runArenaOps runs ops, decoded as op codes below nops with their argument
// bytes, against the copying reference model.
func runArenaOps(t *testing.T, ops []byte, nops int) {
	pool := &Pool{}
	s := pool.Get()
	ref := &refSKB{}
	fill := byte(1) // deterministic content generator, never PoisonByte

	next := func(i *int) int {
		if *i >= len(ops) {
			return 0
		}
		v := int(ops[*i])
		*i++
		return v
	}
	fillBytes := func(b []byte) []byte {
		for i := range b {
			b[i] = fill
			fill++
			if PoisonEnabled && fill == PoisonByte {
				fill++
			}
		}
		return b
	}
	check := func(op string) {
		t.Helper()
		if ref.window == nil {
			if len(s.Data) != 0 {
				t.Fatalf("%s: window %v, reference empty", op, s.Data)
			}
		} else if !bytes.Equal(s.Data, ref.window) {
			t.Fatalf("%s: window %v, reference %v", op, s.Data, ref.window)
		}
		if got, want := s.Bytes(), ref.stream(); !bytes.Equal(got, want) {
			t.Fatalf("%s: stream %v, reference %v", op, got, want)
		}
		if s.NFrags() != len(ref.frags) {
			t.Fatalf("%s: %d frags, reference %d", op, s.NFrags(), len(ref.frags))
		}
		if s.buf != nil && s.Headroom()+len(s.Data)+s.Tailroom() != len(s.buf) {
			t.Fatalf("%s: headroom %d + window %d + tailroom %d != arena %d",
				op, s.Headroom(), len(s.Data), s.Tailroom(), len(s.buf))
		}
	}

	for i := 0; i < len(ops); {
		switch next(&i) % nops {
		case opReserve:
			h, n := next(&i), next(&i)*8
			s.Reserve(h, n)
			ref.window = []byte{}
			ref.frags = nil
			check("Reserve")
		case opPush:
			n := next(&i) % 64
			fill0 := fill
			fillBytes(s.Push(n))
			fill = fill0
			ref.window = append(fillBytes(make([]byte, n)), ref.window...)
			check("Push")
		case opPull:
			if len(s.Data) == 0 {
				continue
			}
			n := next(&i) % len(s.Data)
			got := s.Pull(n)
			if !bytes.Equal(got, ref.window[:n]) {
				t.Fatalf("Pull returned %v, reference %v", got, ref.window[:n])
			}
			ref.window = ref.window[n:]
			check("Pull")
		case opPut:
			n := next(&i) % 256
			fill0 := fill
			fillBytes(s.Put(n))
			fill = fill0
			ref.window = append(ref.window, fillBytes(make([]byte, n))...)
			check("Put")
		case opTrimFront:
			if len(s.Data) == 0 {
				continue
			}
			n := next(&i) % len(s.Data)
			s.TrimFront(n)
			ref.window = ref.window[n:]
			check("TrimFront")
		case opMerge: // a freshly built pooled SKB
			if s.Data == nil {
				continue // chaining onto a byte-less head takes over the window; keep models aligned
			}
			n := next(&i)%128 + 1
			other := pool.Get()
			other.Proto, other.Segs = TCP, 1
			other.Reserve(0, n)
			fill0 := fill
			fillBytes(other.Put(n))
			fill = fill0
			s.Merge(other)
			ref.frags = append(ref.frags, fillBytes(make([]byte, n)))
			pool.Put(other) // GRO's recycle of the absorbed skb
			check("Merge")
		case opClone: // Clone must reproduce the stream without sharing bytes
			c := s.Clone()
			if !bytes.Equal(c.Bytes(), ref.stream()) {
				t.Fatalf("Clone stream %v, reference %v", c.Bytes(), ref.stream())
			}
			if len(c.Data) > 0 {
				old := c.Data[0]
				c.Data[0] ^= 0xFF
				if len(s.Data) > 0 && s.Data[0] != ref.window[0] {
					t.Fatal("Clone shares bytes with the original")
				}
				c.Data[0] = old
			}
			pool.Put(c) // a duplicate frame's terminal Put: foreign to the pool
		case opPoolCycle: // pool round trip: reuse must be logically zero, arena poisoned
			arena := s.buf
			pool.Put(s)
			if PoisonEnabled {
				for j, b := range arena[:cap(arena)] {
					if b != PoisonByte {
						t.Fatalf("arena[%d] = %#x after Put, want PoisonByte", j, b)
					}
				}
			}
			s = pool.Get()
			if !logicallyZero(s) {
				t.Fatalf("pool reuse not logically zero: %+v", s)
			}
			ref.window = nil
			ref.frags = nil
			check("PoolCycle")
		case opReset: // the run ends with s still held: Reset reclaims it too
			pool.Reset()
			checkReset(t, pool)
			s = pool.Get()
			if !logicallyZero(s) {
				t.Fatalf("Get after Reset not logically zero: %+v", s)
			}
			ref.window = nil
			ref.frags = nil
			check("Reset")
		}
	}
}
