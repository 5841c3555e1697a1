package causal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mflow/internal/sim"
)

// naiveAgg is the reference aggregation: one map lookup per segment,
// keyed on (kind, stage), exactly as the breakdown is defined.
type naiveAgg map[aggKey]*KindStat

func (n naiveAgg) add(r *Rec) {
	for _, seg := range r.Timeline {
		k := aggKey{seg.Kind, seg.Stage}
		st := n[k]
		if st == nil {
			st = &KindStat{Kind: seg.Kind, Stage: seg.Stage}
			n[k] = st
		}
		st.Count++
		st.Total += seg.Dur()
		st.Max = max(st.Max, seg.Dur())
	}
}

func (n naiveAgg) breakdown() []KindStat {
	out := make([]KindStat, 0, len(n))
	for _, st := range n {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

type step struct {
	kind  SegKind
	stage string
}

// TestAggregationMatchesNaive feeds randomized timelines through Complete
// and requires Breakdown to equal a per-segment map aggregation of the
// same timelines. The timelines mostly repeat a few templates (the shape
// the aggregation hint is built for) but also vary in length, swap
// stages, gain (kind, stage) pairs never seen before mid-run, reuse stage
// names from separately allocated strings, and straddle ResetStats calls.
func TestAggregationMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkAggregation(t, seed) })
	}
}

func checkAggregation(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	stages := []string{"driver", "vxlan", "veth", "reassembler", "socket"}
	kinds := []SegKind{SegQueue, SegService, SegHandoff, SegGROHold, SegReorderWait}
	randStep := func() step {
		// Clone so equal stage names do not always share one backing
		// array.
		return step{kinds[rng.Intn(len(kinds))], strings.Clone(stages[rng.Intn(len(stages))])}
	}
	templates := make([][]step, 3)
	for i := range templates {
		for n := 2 + rng.Intn(6); n > 0; n-- {
			templates[i] = append(templates[i], randStep())
		}
	}

	p := NewProfiler()
	ref := naiveAgg{}
	p.OnComplete = ref.add
	check := func(when string) {
		t.Helper()
		if got, want := p.Breakdown(), ref.breakdown(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: breakdown differs from naive aggregation\ngot  %+v\nwant %+v", when, got, want)
		}
	}

	now := sim.Time(0)
	resets := 0
	for pkt := uint64(1); pkt <= 3000; pkt++ {
		if pkt%500 == 0 {
			stages = append(stages, fmt.Sprintf("stage%d", pkt))
		}
		tl := append([]step(nil), templates[rng.Intn(len(templates))]...)
		switch rng.Intn(8) {
		case 0: // a new or random pair somewhere
			i := rng.Intn(len(tl) + 1)
			tl = append(tl[:i], append([]step{randStep()}, tl[i:]...)...)
		case 1: // reordered stages
			i, j := rng.Intn(len(tl)), rng.Intn(len(tl))
			tl[i], tl[j] = tl[j], tl[i]
		case 2: // shorter timeline
			tl = tl[:rng.Intn(len(tl))]
		}
		s := mkSKB(pkt, now)
		for _, st := range tl {
			// Zero-length marks record no segment, shifting positions.
			now = now.Add(sim.Duration(rng.Intn(40)))
			p.Mark(s, st.kind, st.stage, now)
		}
		if rng.Intn(2) == 0 {
			p.MarkServe(s, now.Add(5), now.Add(9))
			now = now.Add(9)
		}
		if rng.Intn(100) == 0 {
			// Reset with this packet still in flight; it completes
			// into the fresh aggregation.
			check(fmt.Sprintf("before reset at pkt %d", pkt))
			p.ResetStats()
			ref = naiveAgg{}
			p.OnComplete = ref.add
			resets++
		}
		now = now.Add(sim.Duration(rng.Intn(3)))
		p.Complete(s, now)
		if pkt%97 == 0 {
			check(fmt.Sprintf("after pkt %d", pkt))
		}
	}
	check("end of run")
	if resets == 0 {
		t.Fatal("no ResetStats was exercised")
	}
	if v := p.Violations(); v != 0 {
		t.Fatalf("%d violations: %s", v, p.FirstViolation())
	}
}
