package main

import (
	"fmt"

	"mflow/internal/overlay"
	"mflow/internal/skb"
)

// audit checks one scenario run against the invariants every run must
// keep and returns one message per broken invariant; a passing run
// returns none. violations is the run's causal.Profiler violation count
// (zero for unprobed runs).
func audit(sc overlay.Scenario, r *overlay.Result, violations uint64) []string {
	var bad []string
	if r.OfferedFrames != r.AcceptedFrames+r.DropsRing+r.DropsAdmission {
		bad = append(bad, fmt.Sprintf("NIC conservation: offered=%d != accepted=%d + ring drops=%d + admission drops=%d",
			r.OfferedFrames, r.AcceptedFrames, r.DropsRing, r.DropsAdmission))
	}
	if sc.Proto == skb.TCP && r.DeliveredOutOfOrder != 0 {
		bad = append(bad, fmt.Sprintf("TCP delivered %d segments out of order", r.DeliveredOutOfOrder))
	}
	corrupting := sc.Faults != nil && sc.Faults.Wire.Corrupt > 0
	if !corrupting && (r.WireErrors != 0 || r.ReassemblyErrors != 0) {
		bad = append(bad, fmt.Sprintf("integrity without corruption faults: wire errors=%d reassembly errors=%d",
			r.WireErrors, r.ReassemblyErrors))
	}
	if violations != 0 {
		bad = append(bad, fmt.Sprintf("causal: %d attribution violations", violations))
	}
	if sc.Fabric.Enabled() {
		in := r.UnderlaySent + uint64(r.UnderlayInFlightStart)
		out := r.UnderlayDelivered + r.UnderlayDrops + uint64(r.UnderlayInFlightEnd)
		if in != out {
			bad = append(bad, fmt.Sprintf("underlay conservation: sent=%d + in flight at start=%d != delivered=%d + drops=%d + in flight at end=%d",
				r.UnderlaySent, r.UnderlayInFlightStart, r.UnderlayDelivered, r.UnderlayDrops, r.UnderlayInFlightEnd))
		}
	}
	if r.DeliveredSegments == 0 {
		bad = append(bad, "delivered no segments")
	}
	return bad
}
