package traffic

// ramp holds two periods of the payload pattern (ramp[i] == byte(i)), so
// ramp[b:] is at least one full period starting at byte value b.
var ramp = func() (r [512]byte) {
	for i := range r {
		r[i] = byte(i)
	}
	return r
}()

// FillPattern writes the deterministic wire-mode payload for a segment
// with arrival sequence seq directly into buf — typically a tailroom
// region a sender just skb.Put into its headroom-reserved arena, so the
// application bytes are born in the buffer they will travel in and no
// staging copy ever exists. Byte i is byte(seq+i): the pattern has period
// 256, so the fill is a run of memmoves out of ramp, each starting at the
// pattern's current phase and moving 256–512 bytes. The wire-mode socket
// check verifies frame structure and payload length only; the pattern
// makes captures readable and lets tests check content end to end.
func FillPattern(buf []byte, seq uint64) {
	for i := 0; i < len(buf); {
		i += copy(buf[i:], ramp[byte(seq+uint64(i)):])
	}
}
