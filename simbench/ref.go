package main

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// The reference kernel is fixed work that no change to this repository
// can alter: a priority-queue churn with float math and short-lived
// allocations, the same kind of work as the simulator's hot loop. The
// machine this benchmark runs on changes speed by tens of percent over
// minutes, because other tenants share its cores and caches. Timing the
// kernel next to every repetition gives segs_per_ref, the simulator's
// throughput per unit of the kernel's CPU time, which cancels much of that
// drift.

const (
	refIters    = 200000
	refHeapSize = 1 << 14
)

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refSink keeps the kernels' results live so the compiler cannot drop
// their work.
var refSink []float64

func refKernel(seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	h := make(floatHeap, 0, refHeapSize)
	keep := make([][]byte, 0, 1024)
	var acc float64
	for i := 0; i < refIters; i++ {
		heap.Push(&h, rng.ExpFloat64())
		if h.Len() >= refHeapSize {
			acc += heap.Pop(&h).(float64)
		}
		acc += math.Exp(rng.NormFloat64() * 0.1)
		if i%16 == 0 {
			b := make([]byte, 512)
			b[i%len(b)] = byte(i)
			if len(keep) == cap(keep) {
				keep = keep[:0]
			}
			keep = append(keep, b)
		}
	}
	return acc + float64(len(keep))
}

// refCPU runs one kernel on each of width goroutines, like the matrix's
// pool, and returns the process CPU time they took.
func refCPU(width int) time.Duration {
	out := make([]float64, width)
	before := readHost().cpu
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = refKernel(uint64(w))
		}(w)
	}
	wg.Wait()
	d := readHost().cpu - before
	refSink = out
	return d
}
