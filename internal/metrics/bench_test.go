package metrics

import "testing"

var histSink *Histogram

// BenchmarkNewHistogram pins construction at one allocation: buckets
// arrive with the first sample, not with the histogram.
func BenchmarkNewHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		histSink = NewHistogram()
	}
}

// BenchmarkHistogramRecord is the per-sample hit path; bucket growth is
// amortized to 0 allocs/op once the value range has been seen.
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1_000_000 + 100))
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < 1_000_000; i++ {
		h.Record(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func BenchmarkHistogramMerge(b *testing.B) {
	a, c := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100_000; i++ {
		c.Record(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}
