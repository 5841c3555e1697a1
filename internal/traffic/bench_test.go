package traffic

import (
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
)

// ackSink returns each segment to the pool and acknowledges it at once,
// then stops the scheduler, so one RunUntil is one segment's round trip.
type ackSink struct {
	tx   *TCPSender
	pool *skb.Pool
	s    *sim.Scheduler
}

func (k *ackSink) Deliver(sk *skb.SKB) bool {
	end := sk.EndSeq()
	k.pool.Put(sk)
	k.tx.Ack(end, k.s.Now())
	k.s.Stop()
	return true
}

// BenchmarkTCPSenderPump measures steady-state window churn of a
// client-bound 16 B sender: per iteration one segment reaches the sink, its
// ACK opens the window, and pump sends the next segment through
// sendSegment onto the done lane, which stays about a window deep. Pinned
// at 0 allocs/op by the bench gate.
func BenchmarkTCPSenderPump(b *testing.B) {
	s := sim.NewScheduler(1)
	pool := &skb.Pool{}
	tx := &TCPSender{
		FlowID: 1, MsgSize: 16, Window: 256,
		Core: sim.NewCore(0, s), Sched: s,
		NetDelay: 5 * sim.Microsecond,
		Cost:     ClientCost{PerMsg: 300, PerSeg: 100},
		Pool:     pool,
		Evts:     &EvtPool{},
	}
	tx.Net = &ackSink{tx: tx, pool: pool, s: s}
	tx.Start()
	for i := 0; i < 4096; i++ { // reach steady state: both pools warm
		s.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}
