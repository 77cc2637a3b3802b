package wire

import (
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// These benchmarks time the steady-state codec paths. Their 0 allocs/op
// criterion is asserted by TestEncodeDecodeSteadyStateZeroAllocs, which
// plain `go test` runs on the same fixtures.

// BenchmarkEncodeDecision measures the heaviest frame on the hot send
// path: a full-oal decision with a populated window, encoded into a
// reused pooled buffer.
func BenchmarkEncodeDecision(b *testing.B) {
	dec := bigDecision(32)
	buf := GetBuffer()
	defer PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeTo(buf, dec)
	}
}

// BenchmarkDecodeDecision measures the matching receive path: scratch
// decoding of the same frame, slices reused across calls.
func BenchmarkDecodeDecision(b *testing.B) {
	frame := Encode(bigDecision(32))
	var dc Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// taggedDecision is the heavy decision with a v7 causal context stamped
// into its header. The context is 16 flat bytes copied by value, so
// tagging must cost no allocation over the untagged path.
func taggedDecision() *Decision {
	dec := bigDecision(32)
	dec.Ctx = Causal{Origin: 2, Slot: 417, TS: 5_000_000}
	return dec
}

// BenchmarkEncodeCausalTagged measures the v7 tagged emit path.
func BenchmarkEncodeCausalTagged(b *testing.B) {
	dec := taggedDecision()
	buf := GetBuffer()
	defer PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeTo(buf, dec)
	}
}

// gossipSuspicion is a wire v8 surveillance gossip frame. Gossip relays
// fan out k-fold on every suspicion event, so this path carries the
// same 0 allocs/op criterion as the decision hot path.
func gossipSuspicion() *Suspicion {
	return &Suspicion{
		Header:      Header{From: 4, SendTS: 7_000_000, Ctx: Causal{Origin: 4, Slot: 200, TS: 7_000_000}},
		Suspect:     17,
		Origin:      4,
		Incarnation: 3,
		OriginTS:    7_000_000,
	}
}

// BenchmarkEncodeSuspicion measures the gossip emit path: a suspicion
// frame encoded into a reused pooled buffer.
func BenchmarkEncodeSuspicion(b *testing.B) {
	sus := gossipSuspicion()
	buf := GetBuffer()
	defer PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeTo(buf, sus)
	}
}

// deltaDecision is what steady-state rotation ships under wire v5: a
// decision carrying only the entries changed since the baseline, with
// BaseTS pointing at it.
func deltaDecision(changed int) *Decision {
	l := oal.NewList()
	for i := 0; i < changed; i++ {
		id := oal.ProposalID{Proposer: model.ProcessID(i % 5), Seq: uint64(1000 + i)}
		l.AppendUpdate(id, oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity},
			model.Time(6_000_000+i), oal.Ordinal(40+i), oal.AckSet(0b00111))
	}
	return &Decision{
		Header:     Header{From: 3, SendTS: 6_010_000},
		Group:      model.NewGroup(7, []model.ProcessID{0, 1, 2, 3, 4}),
		OAL:        *l,
		Alive:      []model.ProcessID{0, 1, 2, 3, 4},
		Lineage:    7,
		BaseTS:     5_000_000,
		TruncBelow: 3,
	}
}

// BenchmarkRoundTripDelta measures the whole steady-state wire round
// trip for a delta-encoded decision (4 changed entries against a
// 32-entry window): pooled encode then scratch decode.
func BenchmarkRoundTripDelta(b *testing.B) {
	dec := deltaDecision(4)
	buf := GetBuffer()
	defer PutBuffer(buf)
	var dc Decoder
	full := len(Encode(bigDecision(32)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := EncodeTo(buf, dec)
		if _, err := dc.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(EncodeTo(buf, dec)))/float64(full), "delta_bytes_ratio")
}
