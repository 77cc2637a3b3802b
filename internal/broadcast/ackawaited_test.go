package broadcast

import (
	"slices"
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// AckAwaited is true exactly while a decision sent now would publish an
// own ack a Strong or Strict delivery still waits on: never for Weak,
// purged or membership entries, never once the published acks suffice,
// and never right after BuildDecision published them.
func TestAckAwaitedIsExact(t *testing.T) {
	h := newHarness(t, 0, 1, 2, 3, 4) // strong needs 3 acks, strict 5
	awaited := func() (out []model.ProcessID) {
		for _, id := range h.group.Members {
			if h.members[id].AckAwaited() {
				out = append(out, id)
			}
		}
		return out
	}
	if got := awaited(); len(got) != 0 {
		t.Fatalf("idle group awaits acks at %v", got)
	}

	// Weak updates wait on no ack.
	h.propose(1, "weak", sem(oal.TotalOrder, oal.WeakAtomicity))
	h.decide(0)
	if got := awaited(); len(got) != 0 {
		t.Fatalf("a weak update awaits acks at %v", got)
	}

	// A strong update ordered by p0 carries p0's ack; every other member
	// stamps its own on adoption and awaits it until three are published.
	strong := h.propose(1, "strong", sem(oal.TotalOrder, oal.StrongAtomicity))
	h.decide(0)
	if got := awaited(); !slices.Equal(got, []model.ProcessID{1, 2, 3, 4}) {
		t.Fatalf("after the ordering decision: awaited at %v, want p1..p4", got)
	}
	h.decide(1)
	if h.members[1].AckAwaited() {
		t.Fatalf("AckAwaited right after BuildDecision")
	}
	if got := awaited(); !slices.Equal(got, []model.ProcessID{2, 3, 4}) {
		t.Fatalf("after one ack-only decision: awaited at %v, want p2..p4", got)
	}
	h.decide(2)
	if got := awaited(); len(got) != 0 {
		t.Fatalf("three acks published, still awaited at %v", got)
	}
	for _, id := range h.group.Members {
		if !h.members[id].Delivered(strong.ID) {
			t.Fatalf("p%d has not delivered the strong update", id)
		}
	}

	// Strict waits for all five.
	h.propose(1, "strict", sem(oal.TotalOrder, oal.StrictAtomicity))
	h.decide(3)
	for i, who := range []model.ProcessID{4, 0, 1} {
		h.decide(who)
		if got := awaited(); len(got) != 3-i {
			t.Fatalf("strict after %d ack-only decisions: awaited at %v", i+1, got)
		}
	}
	h.decide(2)
	if got := awaited(); len(got) != 0 {
		t.Fatalf("strict fully acknowledged, still awaited at %v", got)
	}

	// Purged updates and membership entries never count, whatever their
	// local ack state says.
	b := h.members[4]
	h.propose(1, "purged", sem(oal.TotalOrder, oal.StrongAtomicity))
	h.decide(3)
	if !b.AckAwaited() {
		t.Fatalf("setup: p4 should await its ack")
	}
	d := &b.view.Entries[len(b.view.Entries)-1]
	d.Undeliverable = true
	if b.AckAwaited() {
		t.Fatalf("a purged update awaits an ack")
	}
	d.Undeliverable, d.Kind = false, oal.MembershipDesc
	if b.AckAwaited() {
		t.Fatalf("a membership descriptor awaits an ack")
	}
}

// The ordering grid is measured from the latest decision that assigned
// an ordinal, sent or adopted: ack-only decisions leave it alone.
func TestLastOrderingTS(t *testing.T) {
	h := newHarness(t, 0, 1, 2, 3, 4)
	h.propose(1, "ordered", sem(oal.TotalOrder, oal.WeakAtomicity))
	ordering := h.decide(0)
	for _, id := range h.group.Members {
		if got := h.members[id].LastOrderingTS(); got != ordering.SendTS {
			t.Fatalf("p%d: LastOrderingTS %v, want the ordering decision's %v", id, got, ordering.SendTS)
		}
	}
	ackOnly := h.decide(1)
	for _, id := range h.group.Members {
		m := h.members[id]
		if m.LastOrderingTS() != ordering.SendTS || m.LastDecisionTS() != ackOnly.SendTS {
			t.Fatalf("p%d after a decision that ordered nothing: ordering %v decision %v", id, m.LastOrderingTS(), m.LastDecisionTS())
		}
	}
}

// TimeReleaseAt names the earliest settle point (SendTS+δ+ε) of a
// retained time-ordered update that no decision has passed: never one of
// another order, a purged or an already delivered update, and never
// once a decision built or adopted at or after that point released it.
func TestTimeReleaseAtIsExact(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	settle := h.params.Delta + h.params.Epsilon
	timeWeak := sem(oal.TimeOrder, oal.WeakAtomicity)
	decideAt := func(who model.ProcessID, ts model.Time) {
		h.now = ts
		dec, _ := h.members[who].BuildDecision(ts, h.group, h.group.Members)
		h.adopt(dec)
	}
	pending := func(want model.Time) {
		t.Helper()
		for _, id := range h.group.Members {
			at, ok := h.members[id].TimeReleaseAt()
			if want == 0 && ok {
				t.Fatalf("p%d: release pending at %v, want none", id, at)
			}
			if want != 0 && (!ok || at != want) {
				t.Fatalf("p%d: release at %v (%v), want %v", id, at, ok, want)
			}
		}
	}
	pending(0)

	// Other orders wait on no settle point.
	h.propose(1, "total", sem(oal.TotalOrder, oal.WeakAtomicity))
	decideAt(0, h.now+1)
	pending(0)

	// Two time-ordered updates, ordered together: the earlier settle
	// point first, then, once a decision has passed it, the later one.
	t0 := h.now + 1000
	h.now = t0
	a := h.members[1].Propose(t0, []byte("a"), timeWeak)
	h.fanout(a)
	h.now = t0 + 1
	b := h.members[2].Propose(t0+1, []byte("b"), timeWeak)
	h.fanout(b)
	decideAt(0, t0+2)
	pending(t0.Add(settle))
	decideAt(1, t0.Add(settle)-1)
	pending(t0.Add(settle))
	decideAt(2, t0.Add(settle))
	pending(t0.Add(settle) + 1)
	for _, id := range h.group.Members {
		if !h.members[id].Delivered(a.ID) || h.members[id].Delivered(b.ID) {
			t.Fatalf("p%d: a delivered=%v, b delivered=%v at a's settle point", id, h.members[id].Delivered(a.ID), h.members[id].Delivered(b.ID))
		}
	}
	decideAt(0, t0.Add(settle)+1)
	pending(0)

	// Purged and delivered updates wait on nothing, whatever their
	// settle point.
	c := h.propose(1, "c", timeWeak)
	decideAt(2, h.now+1)
	pending(c.SendTS.Add(settle))
	m := h.members[0]
	m.view.Entries[len(m.view.Entries)-1].Undeliverable = true
	if at, ok := m.TimeReleaseAt(); ok {
		t.Fatalf("a purged update waits for release at %v", at)
	}
	h.members[1].ids.markDelivered(c.ID)
	if at, ok := h.members[1].TimeReleaseAt(); ok {
		t.Fatalf("a delivered update waits for release at %v", at)
	}
}

// Every decision is bound by OrderingRoom, whatever sent it: the
// decisions stamped in one D/32 slot order at most the budget together,
// none orders in the cell of the latest ordering decision, and the next
// slot brings a fresh budget. NextOrderingAt names the next cell edge
// while the slot has room and the slot edge once it has none.
func TestOrderingRoomBoundsEveryDecision(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	b := h.members[0]
	for i := 0; i < MaxOrdinalsPerDecision+6; i++ {
		h.propose(1, "p", sem(oal.TotalOrder, oal.WeakAtomicity))
	}
	q := model.Time(h.params.D / orderingSlotsPerD)
	s0 := (h.now/q + 2) * q
	decideAt := func(ts model.Time, want int) {
		t.Helper()
		next := b.view.Next
		if room := b.OrderingRoom(ts); room < want {
			t.Fatalf("at slot offset %d: room %d, want at least %d", ts-s0, room, want)
		}
		dec, _ := b.BuildDecision(ts, h.group, h.group.Members)
		if got := int(dec.OAL.Next - next); got != want {
			t.Fatalf("decision at slot offset %d ordered %d, want %d", ts-s0, got, want)
		}
	}
	decideAt(s0+1, MaxOrdinalsPerDecision)
	if at, full := b.NextOrderingAt(); !full || at != s0+q {
		t.Fatalf("spent slot: next ordering at offset %d (full=%v), want the slot edge", at-s0, full)
	}
	decideAt(s0+q/2, 0) // a later cell of the spent slot
	decideAt(s0+q+1, 6) // the next slot: what was left
	for i := 0; i < 3; i++ {
		h.propose(1, "p", sem(oal.TotalOrder, oal.WeakAtomicity))
	}
	decideAt(s0+q+2, 0) // the cell of the latest ordering decision
	if at, full := b.NextOrderingAt(); full || at != s0+q+(q+3)/4 {
		t.Fatalf("slot with room: next ordering at offset %d (full=%v), want the next cell edge", at-s0, full)
	}
	decideAt(s0+q+(q+3)/4, 3)
}
