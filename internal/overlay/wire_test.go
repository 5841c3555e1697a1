package overlay

import (
	"fmt"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/packet"
	"mflow/internal/proto"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/traffic"
)

// wireQuick returns a short wire-mode scenario.
func wireQuick(sys steering.System, proto skb.Proto) Scenario {
	return Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		WireMode: true,
		Warmup:   1 * sim.Millisecond, Measure: 3 * sim.Millisecond,
	}
}

func TestWireModeEndToEndIntegrity(t *testing.T) {
	// Every system and protocol must move real bytes through the full
	// pipeline — encapsulation, GRO coalescing, byte-level VxLAN
	// decapsulation, splitting/reassembly — with zero integrity errors.
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		for _, sys := range steering.Systems {
			r := Run(wireQuick(sys, proto))
			if r.Gbps <= 0 {
				t.Errorf("%v/%v wire mode: no throughput", sys, proto)
			}
			if r.WireErrors != 0 {
				t.Errorf("%v/%v wire mode: %d integrity errors", sys, proto, r.WireErrors)
			}
		}
	}
}

func TestWireModeDecapsulatesBytes(t *testing.T) {
	sc := wireQuick(steering.MFlow, skb.TCP).withDefaults()
	h := buildHost(sc, Probes{}, newArena())
	h.run()
	fp := h.flows[0]
	if fp.vx == nil || fp.vx.Decapped == 0 {
		t.Fatal("VxLAN device never decapsulated real frames")
	}
	if fp.vx.Errors != 0 {
		t.Errorf("VxLAN decap errors: %d", fp.vx.Errors)
	}
	if fp.sock.VerifyErrors != 0 {
		t.Errorf("socket verify errors: %d (%v)", fp.sock.VerifyErrors, fp.sock.FirstVerifyErr)
	}
	if fp.sock.Bytes == 0 {
		t.Error("nothing delivered")
	}
}

func TestWireModeMatchesSyntheticShape(t *testing.T) {
	// Wire mode must not change the performance model, only add bytes:
	// throughput should match the synthetic run closely.
	syn := Run(Scenario{
		System: steering.Vanilla, Proto: skb.TCP, MsgSize: 65536,
		Warmup: 1 * sim.Millisecond, Measure: 3 * sim.Millisecond,
	})
	wire := Run(wireQuick(steering.Vanilla, skb.TCP))
	ratio := wire.Gbps / syn.Gbps
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("wire mode perturbed throughput: %.2f vs %.2f", wire.Gbps, syn.Gbps)
	}
}

func TestWireModeNativeCarriesPlainFrames(t *testing.T) {
	r := Run(wireQuick(steering.Native, skb.UDP))
	if r.WireErrors != 0 {
		t.Errorf("native wire mode: %d integrity errors", r.WireErrors)
	}
}

// Wire mode across the fabric: senders build real frames into
// headroom-reserved arenas, the TX host's VTEP pushes genuine outer
// headers in place, the frames cross the underlay, and the owner host's
// vxlan device performs a validated per-frame pull. Every delivered
// payload must verify at the remote socket.
func TestFabricWireModeEndToEnd(t *testing.T) {
	for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
		sc := wireQuick(sys, skb.TCP)
		sc.Flows = 2
		sc.Fabric = &fabric.Config{Hosts: 2}
		r := Run(sc)
		if r.Gbps <= 0 {
			t.Errorf("%v fabric wire mode: no throughput", sys)
		}
		if r.WireErrors != 0 {
			t.Errorf("%v fabric wire mode: %d integrity errors", sys, r.WireErrors)
		}
		if r.UnderlaySent == 0 {
			t.Errorf("%v fabric wire mode: frames never crossed the underlay", sys)
		}
	}
}

// Native (host-network) fabric wire mode: plain inner frames cross the
// underlay with no VTEP push, and still verify at the remote socket.
func TestFabricWireModeNative(t *testing.T) {
	sc := wireQuick(steering.Native, skb.TCP)
	sc.Flows = 2
	sc.Fabric = &fabric.Config{Hosts: 2}
	r := Run(sc)
	if r.WireErrors != 0 {
		t.Errorf("native fabric wire mode: %d integrity errors", r.WireErrors)
	}
}

// checkPattern is a content check for wire-mode TCP deliveries, stricter
// than wireVerify's structure and length check: every frame in every part
// of the delivered skb must carry the payload pattern (byte j of segment
// seq is byte(seq+j)) for the segment its TCP header names, Seq / MSS. It
// counts the frames it checked.
func checkPattern(s *skb.SKB, frames *int) error {
	for i, n := 0, s.Parts(); i < n; i++ {
		err := packet.WalkFrames(s.Part(i), func(frame []byte) error {
			_, _, tcp, _, payload, err := packet.ParseInner(frame)
			if err != nil {
				return err
			}
			if tcp.Seq%traffic.MSS != 0 {
				return fmt.Errorf("TCP seq %d is not a segment boundary", tcp.Seq)
			}
			seq := uint64(tcp.Seq / traffic.MSS)
			for j, b := range payload {
				if want := byte(seq + uint64(j)); b != want {
					return fmt.Errorf("segment %d byte %d is %#02x, pattern says %#02x", seq, j, b, want)
				}
			}
			*frames++
			return nil
		})
		if err != nil {
			return fmt.Errorf("part %d/%d: %w", i, n, err)
		}
	}
	return nil
}

// TestWireModePayloadContent checks delivered payload bytes, not just
// their count: after GRO frag chaining, MFLOW splitting and reassembly,
// VxLAN decap and (on the fabric) a VTEP push and an underlay crossing,
// every byte a TCP socket receives must be the pattern its sender wrote.
// The recycled cases run on a run arena that dirtied runs handed back: no
// byte a previous run left in a recycled skb arena or queue buffer may reach
// a socket.
func TestWireModePayloadContent(t *testing.T) {
	cases := []struct {
		name     string
		sys      steering.System
		hosts    int
		recycled bool
	}{
		{"vanilla", steering.Vanilla, 1, false},
		{"mflow", steering.MFlow, 1, false},
		{"mflow-fabric-2", steering.MFlow, 2, false},
		{"mflow-recycled", steering.MFlow, 1, true},
		{"mflow-fabric-2-recycled", steering.MFlow, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := wireQuick(tc.sys, skb.TCP)
			arena := newArena()
			if tc.recycled {
				dirtyRecycledPools()
				arena = recycled.get()
				defer recycled.put(arena)
				checkServed(t, tc.name, arena)
			}
			var hosts []*host
			var run func() *Result
			if tc.hosts > 1 {
				sc.Flows = 2
				sc.Fabric = &fabric.Config{Hosts: tc.hosts}
				sc = sc.withDefaults()
				fs := buildFabric(sc, Probes{}, arena)
				hosts = fs.hosts
				run = func() *Result { return runHosts(sc, fs.sched, fs.hosts, fs) }
			} else {
				h := buildHost(sc.withDefaults(), Probes{}, arena)
				hosts = []*host{h}
				run = h.run
			}
			var sockets []*proto.Socket
			frames := 0
			for _, h := range hosts {
				for _, fp := range h.flows {
					base := fp.sock.Verify
					if base == nil {
						t.Fatalf("flow %d: wire-mode socket has no frame check", fp.id)
					}
					fp.sock.Verify = func(s *skb.SKB) error {
						if err := base(s); err != nil {
							return err
						}
						return checkPattern(s, &frames)
					}
					sockets = append(sockets, fp.sock)
				}
			}
			r := run()
			for _, so := range sockets {
				if so.VerifyErrors != 0 {
					t.Errorf("%d socket check failures, first: %v", so.VerifyErrors, so.FirstVerifyErr)
				}
			}
			if r.WireErrors != 0 {
				t.Errorf("%d wire errors", r.WireErrors)
			}
			if frames == 0 {
				t.Fatal("no frame reached a socket")
			}
		})
	}
}
