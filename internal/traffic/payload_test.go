package traffic

import (
	"bytes"
	"strconv"
	"testing"
)

// fillPatternNaive is the per-byte definition of the wire payload pattern;
// FillPattern must produce exactly these bytes.
func fillPatternNaive(buf []byte, seq uint64) {
	for i := range buf {
		buf[i] = byte(seq + uint64(i))
	}
}

func TestFillPatternMatchesNaive(t *testing.T) {
	lens := []int{1023, 1024, MSS, 65536}
	for n := 0; n <= 600; n++ {
		lens = append(lens, n)
	}
	seqs := []uint64{255, 256, 1<<40 + 77}
	for s := uint64(0); s <= 300; s++ {
		seqs = append(seqs, s)
	}
	const guard = 0xA5
	got := make([]byte, 65536+1)
	want := make([]byte, 65536)
	for _, n := range lens {
		for _, seq := range seqs {
			for i := range got[:n+1] {
				got[i] = guard
			}
			FillPattern(got[:n], seq)
			fillPatternNaive(want[:n], seq)
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("len %d seq %d: FillPattern differs from the per-byte pattern", n, seq)
			}
			if got[n] != guard {
				t.Fatalf("len %d seq %d: wrote past the end of buf", n, seq)
			}
		}
	}
}

// BenchmarkFillPattern pins the payload fill at one MSS segment and at a
// 64 KB TSO-sized buffer; the benchgate baseline holds it at 0 allocs/op.
func BenchmarkFillPattern(b *testing.B) {
	for _, n := range []int{MSS, 65536} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FillPattern(buf, uint64(i))
			}
		})
	}
}
