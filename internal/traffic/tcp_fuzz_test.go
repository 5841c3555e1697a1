package traffic

import (
	"testing"

	"mflow/internal/proto"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// fuzzSegs is how many segments each FuzzTCP run transfers.
const fuzzSegs = 300

// fuzzLink is a fuzz-driven wire from a reliable TCPSender to a
// proto.TCPReceiver. Each frame, first transmissions and retransmissions
// alike, consumes one tape byte: b&7 == 0 drops the frame, b&7 == 1 also
// delivers a copy 3 µs later, and b>>3 adds up to 15.5 µs of extra delay,
// so later frames overtake earlier ones. Once the tape runs out frames pass
// cleanly, which bounds the loss any run must recover from.
type fuzzLink struct {
	tape []byte
	s    *sim.Scheduler
	rx   *proto.TCPReceiver
}

func (l *fuzzLink) Deliver(sk *skb.SKB) bool {
	if len(l.tape) == 0 {
		l.rx.Rx(sk, nil)
		return true
	}
	b := l.tape[0]
	l.tape = l.tape[1:]
	switch b & 7 {
	case 0:
		return false
	case 1:
		dup := &skb.SKB{
			FlowID: sk.FlowID, Proto: sk.Proto, Seq: sk.Seq, Segs: sk.Segs,
			WireLen: sk.WireLen, PayloadLen: sk.PayloadLen,
			MsgID: sk.MsgID, MsgEnd: sk.MsgEnd, SentAt: sk.SentAt,
		}
		l.s.After(3*sim.Microsecond, func() { l.rx.Rx(dup, nil) })
	}
	l.s.After(sim.Duration(b>>3)*sim.Microsecond/2, func() { l.rx.Rx(sk, nil) })
	return true
}

// FuzzTCP runs the reliable sender's loss recovery (fast retransmit, SACK
// sweeps, RTO backoff) against a lossy, duplicating, reordering link. The
// first byte picks the configuration: bit 0 wires the receiver's hole map
// (SACK) into the sender, bits 1-3 the receiver's out-of-order cap (0 is
// unbounded), bits 4-5 the window and bits 6-7 the message size. The rest
// is the link tape. Every run must deliver exactly segments 0..fuzzSegs-1
// in order, end with nothing outstanding, and stay within an event budget.
func FuzzTCP(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x11, 2, 2, 0, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{0x20, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x35, 1, 9, 17, 0, 0, 200, 2, 0, 8, 0, 1, 250, 2, 2, 0})
	f.Add([]byte{0xc3, 0, 255, 0, 255, 0, 255, 0, 255, 1, 1, 1, 1})
	f.Add([]byte{0x7e, 120, 16, 8, 0, 0, 3, 4, 5, 0, 6, 0, 7, 0, 0, 0, 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		tape := data[1:]
		if len(tape) > 512 {
			tape = tape[:512]
		}
		window := []int{4, 16, 64, 256}[cfg>>4&3]
		msgSize := []int{16, MSS, 4000, 700}[cfg>>6]

		s := sim.NewScheduler(1)
		var delivered []uint64
		rx := &proto.TCPReceiver{OFOCap: int(cfg >> 1 & 7)}
		tx := &TCPSender{
			FlowID: 1, MsgSize: msgSize, Window: min(window, fuzzSegs),
			Core: sim.NewCore(10, s), Sched: s,
			NetDelay: 5 * sim.Microsecond,
			Cost:     ClientCost{PerSeg: 100},
			Reliable: true, InitialRTO: 300 * sim.Microsecond,
		}
		if cfg&1 != 0 {
			tx.Missing = rx.Missing
		}
		rx.Deliver = func(sk *skb.SKB) {
			delivered = append(delivered, sk.Seq)
			end := sk.EndSeq()
			s.After(sim.Microsecond, func() {
				// Shrink the window so the sender transmits exactly
				// fuzzSegs segments, and stop it once all are acked.
				if end >= fuzzSegs {
					tx.Stop()
				} else if rem := int(fuzzSegs - end); rem < tx.Window {
					tx.Window = rem
				}
				tx.Ack(end, s.Now())
			})
		}
		rx.DupAck = func(e uint64) { s.After(sim.Microsecond, func() { tx.DupAck(e) }) }
		tx.Net = &fuzzLink{tape: tape, s: s, rx: rx}

		s.At(0, tx.Start)
		budget := uint64(20*fuzzSegs + 200*len(tape))
		for s.Pending() > 0 {
			s.RunUntil(s.Now().Add(sim.Millisecond))
			if n := s.Stats().Scheduled; n > budget {
				t.Fatalf("%d events scheduled, over the budget of %d (delivered %d of %d)",
					n, budget, len(delivered), fuzzSegs)
			}
		}

		if len(delivered) != fuzzSegs {
			t.Fatalf("delivered %d segments, want %d", len(delivered), fuzzSegs)
		}
		for i, seq := range delivered {
			if seq != uint64(i) {
				t.Fatalf("delivery %d carried seq %d, want %d in order", i, seq, i)
			}
		}
		if n := tx.Outstanding(); n != 0 {
			t.Fatalf("Outstanding() = %d at the end, want 0", n)
		}
		if n := rx.Pending(); n != 0 {
			t.Fatalf("%d segments still parked out of order", n)
		}
	})
}
