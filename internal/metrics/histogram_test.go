package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Errorf("count %d, want 1000", h.Count())
	}
	if m := h.Mean(); math.Abs(m-500.5) > 0.01 {
		t.Errorf("mean %.2f, want 500.5", m)
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("min/max %d/%d, want 1/1000", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 100000; i++ {
		h.Record(i)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := q * 100000
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("q=%v: got %.0f, want %.0f (err > 5%%)", q, got, want)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		for _, s := range samples {
			h.Record(int64(s))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Error("negative sample should clamp to 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Errorf("merged count %d, want 200", a.Count())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Errorf("merged min/max %d/%d, want 0/1099", a.Min(), a.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("reset did not clear")
	}
}

func TestBucketRoundtrip(t *testing.T) {
	// bucketLow(bucketOf(v)) <= v < bucketLow(bucketOf(v)+1)
	for _, v := range []int64{0, 1, 31, 32, 33, 100, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		if bucketLow(b) > v {
			t.Errorf("bucketLow(%d)=%d > v=%d", b, bucketLow(b), v)
		}
		if bucketLow(b+1) <= v {
			t.Errorf("bucketLow(%d)=%d <= v=%d", b+1, bucketLow(b+1), v)
		}
	}
}

func TestMeanStddev(t *testing.T) {
	m, s := MeanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-9 || math.Abs(s-2) > 1e-9 {
		t.Errorf("got mean %.2f stddev %.2f, want 5/2", m, s)
	}
	if m, s := MeanStddev(nil); m != 0 || s != 0 {
		t.Error("empty input should give zeros")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if p := Percentile(xs, 50); math.Abs(p-30) > 1e-9 {
		t.Errorf("p50=%.1f, want 30", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Errorf("p100=%.1f, want 50", p)
	}
	if p := Percentile(xs, 0); p != 10 {
		t.Errorf("p0=%.1f, want 10", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%g)=%d, want 0", q, v)
		}
	}
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram accessors must return 0")
	}
}

func TestQuantileExtremes(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 500, 90000} {
		h.Record(v)
	}
	if got := h.Quantile(0); got != 10 {
		t.Errorf("Quantile(0)=%d, want min 10", got)
	}
	if got := h.Quantile(1); got != 90000 {
		t.Errorf("Quantile(1)=%d, want max 90000", got)
	}
	// Out-of-range q clamps to the extremes rather than misbehaving.
	if h.Quantile(-0.5) != 10 || h.Quantile(2) != 90000 {
		t.Error("out-of-range q must clamp to min/max")
	}
}

func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 12345 {
			t.Errorf("single-sample Quantile(%g)=%d, want 12345", q, v)
		}
	}
}

func TestQuantileBucketBoundaries(t *testing.T) {
	// Values straddling the exact/log boundary (exactMax=64) and power-of-two
	// bucket edges must round-trip within the documented relative error.
	h := NewHistogram()
	vals := []int64{63, 64, 65, 127, 128, 129, 1023, 1024, 1025}
	for _, v := range vals {
		h.Record(v)
	}
	if h.Min() != 63 || h.Max() != 1025 {
		t.Fatalf("min/max wrong: %d/%d", h.Min(), h.Max())
	}
	for i, v := range vals {
		// quantile hitting exactly sample i
		q := (float64(i) + 0.5) / float64(len(vals))
		got := h.Quantile(q)
		if err := math.Abs(float64(got-v)) / float64(v); err > 1.0/subBuckets {
			t.Errorf("Quantile(%g)=%d for sample %d: relative error %.3f", q, got, v, err)
		}
	}
}

func TestRecordN(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.RecordN(500, 4)
	for i := 0; i < 4; i++ {
		b.Record(500)
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Median() != b.Median() {
		t.Errorf("RecordN(500,4) != 4×Record(500): %v vs %v", a, b)
	}
	a.RecordN(100, 0) // no-op
	if a.Count() != 4 {
		t.Error("RecordN with n=0 must be a no-op")
	}
	a.RecordN(-7, 2) // clamps to zero
	if a.Min() != 0 || a.Count() != 6 {
		t.Errorf("negative RecordN: min=%d count=%d", a.Min(), a.Count())
	}
	var nilH *Histogram
	nilH.RecordN(1, 1) // must not panic
}

// eagerHistogram is Histogram with every bucket allocated up front, the
// layout before buckets grew on demand. It is the reference the lazy
// buckets must match bit for bit.
type eagerHistogram struct {
	counts   []uint64
	n        uint64
	sum      float64
	min, max int64
}

func newEagerHistogram() *eagerHistogram {
	return &eagerHistogram{counts: make([]uint64, numBuckets), min: math.MaxInt64}
}

func (h *eagerHistogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)] += n
	h.n += n
	h.sum += float64(v) * float64(n)
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

func (h *eagerHistogram) Merge(o *eagerHistogram) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.n > 0 {
		h.min = min(h.min, o.min)
		h.max = max(h.max, o.max)
	}
}

func (h *eagerHistogram) Reset() { *h = *newEagerHistogram() }

func (h *eagerHistogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := min(uint64(q*float64(h.n)), h.n-1)
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			lo, hi := bucketLow(b), bucketLow(b+1)
			return min(max(lo+(hi-lo)/2, h.min), h.max)
		}
	}
	return h.max
}

// sameAsEager reports the first way h differs from the eager reference.
func sameAsEager(t *testing.T, what string, h *Histogram, e *eagerHistogram) {
	t.Helper()
	emin := e.min
	if e.n == 0 {
		emin = 0
	}
	if h.Count() != e.n || math.Float64bits(h.Sum()) != math.Float64bits(e.sum) ||
		h.Min() != emin || h.Max() != e.max {
		t.Fatalf("%s: count/sum/min/max %d/%v/%d/%d, eager %d/%v/%d/%d",
			what, h.Count(), h.Sum(), h.Min(), h.Max(), e.n, e.sum, emin, e.max)
	}
	for _, q := range []float64{0, .001, .5, .99, .999, 1} {
		if got, want := h.Quantile(q), e.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%g) = %d, eager %d", what, q, got, want)
		}
	}
}

// TestLazyBucketsMatchEager records the same random samples into lazy
// histograms and the eager reference: edge values, every range from exact
// buckets to MaxInt64, RecordN with huge counts, merges both ways between
// histograms of different bucket lengths and an empty one, and Reset
// followed by re-recording. Every statistic must be identical.
func TestLazyBucketsMatchEager(t *testing.T) {
	edges := []int64{0, 63, 64, 1 << 62, math.MaxInt64, -1, -5, math.MinInt64}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Each pair draws from a different top exponent, so the lazy
		// histograms end with different bucket lengths; pair 0 stays empty
		// until it is merged into.
		tops := []int{0, 6, 20, 63}
		lazy := make([]*Histogram, len(tops))
		eager := make([]*eagerHistogram, len(tops))
		record := func(i, samples int) {
			for k := 0; k < samples; k++ {
				v := rng.Int63() >> (63 - rng.Intn(tops[i]+1))
				if rng.Intn(20) == 0 {
					v = edges[rng.Intn(len(edges))]
				}
				n := uint64(1)
				if rng.Intn(10) == 0 {
					n = uint64(rng.Int63n(1 << 40))
				}
				lazy[i].RecordN(v, n)
				eager[i].RecordN(v, n)
			}
		}
		for i := range tops {
			lazy[i], eager[i] = NewHistogram(), newEagerHistogram()
			if i > 0 {
				record(i, 1+rng.Intn(500))
			}
			sameAsEager(t, "record", lazy[i], eager[i])
		}
		for i := range tops {
			for j := range tops {
				if i != j {
					lazy[i].Merge(lazy[j])
					eager[i].Merge(eager[j])
					sameAsEager(t, "merge", lazy[i], eager[i])
				}
			}
			lazy[i].Merge(NewHistogram())
			eager[i].Merge(newEagerHistogram())
			sameAsEager(t, "merge empty", lazy[i], eager[i])
			into, intoEager := NewHistogram(), newEagerHistogram()
			into.Merge(lazy[i])
			intoEager.Merge(eager[i])
			sameAsEager(t, "merge into empty", into, intoEager)
		}
		for i := range tops {
			lazy[i].Reset()
			eager[i].Reset()
			sameAsEager(t, "reset", lazy[i], eager[i])
			record(i, 1+rng.Intn(200))
			sameAsEager(t, "re-record", lazy[i], eager[i])
		}
	}
}
