package main

import (
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{10000000, 0.9999, true},
	} {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

func TestBusyFrac(t *testing.T) {
	jobs := []time.Duration{time.Second, time.Second, 2 * time.Second}
	for _, c := range []struct {
		width int
		wall  time.Duration
		want  float64
	}{
		{2, 2 * time.Second, 1},
		{2, 4 * time.Second, 0.5},
		{1, 4 * time.Second, 1},
		{0, time.Second, 0},
		{2, 0, 0},
	} {
		if got := busyFrac(jobs, c.width, c.wall); got != c.want {
			t.Errorf("busyFrac(width %d, wall %v) = %v, want %v", c.width, c.wall, got, c.want)
		}
	}
}

func TestRefCPU(t *testing.T) {
	if d := refCPU(1); d <= 0 {
		t.Errorf("reference kernel took %v of CPU", d)
	}
	if refKernel(7) != refKernel(7) {
		t.Error("reference kernel is not deterministic")
	}
}
