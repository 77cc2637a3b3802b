package broadcast

import (
	"slices"
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// electAt simulates a single-failure election win at `winner`: the other
// survivors contribute their views/dpds, `departed` are removed, and the
// winner reconciles and announces the shrunk group.
func (h *harness) electAt(winner model.ProcessID, departed ...model.ProcessID) model.Group {
	newGroup := h.group
	for _, q := range departed {
		newGroup = newGroup.Remove(q)
	}
	var reports []Report
	for _, id := range newGroup.Members {
		if id == winner {
			continue
		}
		reports = append(reports, Report{
			From: id,
			View: h.members[id].CurrentView(),
			DPD:  h.members[id].DPD(),
		})
	}
	h.members[winner].Reconcile(h.tick(), newGroup, departed, reports)
	h.group = newGroup
	// Winner disseminates; survivors adopt.
	dec, _ := h.members[winner].BuildDecision(h.tick(), newGroup, newGroup.Members)
	for _, id := range newGroup.Members {
		if id != winner {
			h.members[id].AdoptDecision(h.now, dec)
		}
	}
	return newGroup
}

func TestReconcileLostProposalPurged(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// p2 proposes; only p2 ever held the body, but a decision from p2
	// ordered it. Then p2 crashes.
	p := h.members[2].Propose(h.tick(), []byte("lost"), sem(oal.TotalOrder, oal.StrongAtomicity))
	_ = p // body never fanned out
	dec, _ := h.members[2].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[0].AdoptDecision(h.now, dec)
	h.members[1].AdoptDecision(h.now, dec)

	h.electAt(0, 2)

	for _, id := range []model.ProcessID{0, 1} {
		v := h.members[id].CurrentView()
		d := v.Find(oal.ProposalID{Proposer: 2, Seq: 1})
		if d == nil || !d.Undeliverable {
			t.Fatalf("p%d: lost proposal not marked undeliverable: %v", id, d)
		}
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered a lost proposal", id)
		}
	}
}

func TestReconcileKeepsSurvivingBodies(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// p2 proposes and the body reaches p0 before p2 crashes: survivors
	// must still deliver it.
	h.propose(2, "survives", sem(oal.TotalOrder, oal.WeakAtomicity), 1)
	dec, _ := h.members[2].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[0].AdoptDecision(h.now, dec)
	h.members[1].AdoptDecision(h.now, dec)

	h.electAt(0, 2)
	// p1 lacks the body; it nacks and p0 retransmits.
	v1 := h.members[1].CurrentView()
	d := v1.Find(oal.ProposalID{Proposer: 2, Seq: 1})
	if d == nil || d.Undeliverable {
		t.Fatalf("surviving proposal wrongly purged: %v", d)
	}
	bodies := h.members[0].OnNack(&wire.Nack{Missing: []oal.ProposalID{d.ID}})
	if len(bodies) != 1 {
		t.Fatalf("retransmit failed")
	}
	h.members[1].OnProposal(h.tick(), bodies[0])
	if got := h.payloads(1); len(got) != 1 || got[0] != "survives" {
		t.Fatalf("p1: %v", got)
	}
}

func TestReconcileOrphanOrder(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// p2 sends two total-ordered updates; the first is lost to everyone,
	// the second reaches the survivors. Both get ordered by p2 itself.
	h.members[2].Propose(h.tick(), []byte("first"), sem(oal.TotalOrder, oal.WeakAtomicity))
	second := h.members[2].Propose(h.tick(), []byte("second"), sem(oal.TotalOrder, oal.WeakAtomicity))
	dec, _ := h.members[2].BuildDecision(h.tick(), h.group, h.group.Members)
	for _, id := range []model.ProcessID{0, 1} {
		h.members[id].AdoptDecision(h.now, dec)
		h.members[id].OnProposal(h.now, second)
	}

	h.electAt(0, 2)

	v := h.members[0].CurrentView()
	d1 := v.Find(oal.ProposalID{Proposer: 2, Seq: 1})
	d2 := v.Find(oal.ProposalID{Proposer: 2, Seq: 2})
	if d1 == nil || !d1.Undeliverable {
		t.Fatalf("lost first not purged: %v", d1)
	}
	if d2 == nil || !d2.Undeliverable {
		t.Fatalf("orphan-order second not purged: %v", d2)
	}
	for _, id := range []model.ProcessID{0, 1} {
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered an orphan", id)
		}
	}
}

func TestReconcileOrphanAtomicity(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// Ordinal 1: p2's proposal, lost to everyone (will be purged).
	h.members[2].Propose(h.tick(), []byte("dep"), sem(oal.Unordered, oal.WeakAtomicity))
	// Ordinal 2: p0's strong-atomicity proposal with hdo >= 1.
	dec0, _ := h.members[2].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[0].AdoptDecision(h.now, dec0)
	h.members[1].AdoptDecision(h.now, dec0)
	strong := h.members[0].Propose(h.tick(), []byte("needs-dep"), sem(oal.Unordered, oal.StrongAtomicity))
	if strong.HDO != 1 {
		t.Fatalf("hdo: %d", strong.HDO)
	}
	h.members[1].OnProposal(h.now, strong)
	dec1, _ := h.members[0].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[1].AdoptDecision(h.now, dec1)

	h.electAt(1, 2)

	v := h.members[1].CurrentView()
	if d := v.Find(strong.ID); d == nil || !d.Undeliverable {
		t.Fatalf("orphan-atomicity proposal not purged: %v", d)
	}
	for _, id := range []model.ProcessID{0, 1} {
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered orphan-atomicity update", id)
		}
	}
}

func TestReconcileDropsUnorderedPendingFromDeparted(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// p2's second proposal reaches the survivors but its first never
	// does; neither is ever ordered. After p2's departure the sequence
	// gap is unrepairable, so the pending body must be dropped.
	h.members[2].Propose(h.tick(), []byte("gap"), sem(oal.TotalOrder, oal.WeakAtomicity))
	orphan := h.members[2].Propose(h.tick(), []byte("unorderable"), sem(oal.TotalOrder, oal.WeakAtomicity))
	h.members[0].OnProposal(h.now, orphan)
	h.members[1].OnProposal(h.now, orphan)

	h.electAt(0, 2)

	if h.members[0].view.Find(orphan.ID) != nil {
		t.Fatalf("unorderable proposal entered the view")
	}
	if h.members[0].ids.body(orphan.ID) != nil {
		t.Fatalf("pending body from departed proposer not dropped")
	}
	for _, id := range []model.ProcessID{0, 1} {
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered an unorderable proposal", id)
		}
	}
}

func TestReconcileUnknownDependency(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// Decision baseline seen by all.
	decA, _ := h.members[2].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[0].AdoptDecision(h.now, decA)
	h.members[1].AdoptDecision(h.now, decA)
	// p0 proposes with strong atomicity. Simulate that p0 had seen a
	// decision chain (known only to the doomed p2) assigning ordinals up
	// to 5: its hdo points past everything the survivors know.
	strong := h.members[0].Propose(h.tick(), []byte("dangling"), sem(oal.Unordered, oal.StrongAtomicity))
	h.members[0].ids.body(strong.ID).HDO = 5
	h.members[1].OnProposal(h.now, strong)
	h.members[1].ids.body(strong.ID).HDO = 5
	dec1, _ := h.members[0].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[1].AdoptDecision(h.now, dec1)
	if dec1.OAL.Find(strong.ID).HDO != 5 {
		t.Fatalf("hdo not carried into oal")
	}
	// Never deliverable meanwhile: the dependency is unknown.
	for _, id := range []model.ProcessID{0, 1} {
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered with unknown dependency", id)
		}
	}

	h.electAt(1, 2)

	v := h.members[1].CurrentView()
	d := v.Find(strong.ID)
	if d == nil || !d.Undeliverable {
		t.Fatalf("unknown-dependency proposal not purged: %+v", d)
	}
}

func TestReconcileAppendsDPD(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// A weak/unordered update delivered by survivors but never ordered
	// (the only decider to know it, p2, crashed before deciding).
	h.propose(0, "fast", sem(oal.Unordered, oal.WeakAtomicity))
	for _, id := range []model.ProcessID{0, 1} {
		if len(h.payloads(id)) != 1 {
			t.Fatalf("fast path failed at p%d", id)
		}
	}
	h.electAt(0, 2)
	// The update now has an ordinal and is NOT undeliverable: atomicity
	// demands every member deliver it.
	v := h.members[1].CurrentView()
	d := v.Find(oal.ProposalID{Proposer: 0, Seq: 1})
	if d == nil || d.Undeliverable || d.Ordinal == oal.None {
		t.Fatalf("dpd update not ordered: %v", d)
	}
	// No double delivery at the survivors.
	for _, id := range []model.ProcessID{0, 1} {
		if got := h.payloads(id); len(got) != 1 {
			t.Fatalf("p%d deliveries: %v", id, got)
		}
	}
}

func TestReconcileAdoptsLongestView(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// p1 holds a newer log than p0 (p0 missed the last decision).
	h.propose(2, "newer", sem(oal.TotalOrder, oal.WeakAtomicity))
	dec, _ := h.members[2].BuildDecision(h.tick(), h.group, h.group.Members)
	h.members[1].AdoptDecision(h.now, dec) // only p1 sees it

	h.electAt(0, 2) // p0 wins but must adopt p1's longer view

	v := h.members[0].CurrentView()
	if v.Find(oal.ProposalID{Proposer: 2, Seq: 1}) == nil {
		t.Fatalf("winner lost the longer view's entries")
	}
	// Both survivors deliver "newer" (p0 got the body at propose time).
	if got := h.payloads(0); len(got) != 1 || got[0] != "newer" {
		t.Fatalf("p0: %v", got)
	}
}

func TestReconcileMembershipDescriptorAppended(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	g := h.electAt(0, 2)
	v := h.members[1].CurrentView()
	found := false
	for _, d := range v.Entries {
		if d.Kind == oal.MembershipDesc && d.GroupSeq == g.Seq {
			found = true
			if !slices.Equal(d.Members, g.Members) {
				t.Fatalf("membership descriptor members: %v", d.Members)
			}
		}
	}
	if !found {
		t.Fatalf("membership descriptor missing")
	}
	if h.members[0].Group().Seq != g.Seq {
		t.Fatalf("group not installed at winner")
	}
}

func TestStateTransferRoundTrip(t *testing.T) {
	var installed []byte
	params := model.DefaultParams(3)
	g := model.NewGroup(0, []model.ProcessID{0, 1, 2})

	app := []byte("app-state-v7")
	sender := New(0, params, Config{Snapshot: func() []byte { return app }})
	sender.SetGroup(g)
	// Sender has a delivered+ordered update and a pending body.
	sender.Propose(100, []byte("done"), sem(oal.Unordered, oal.WeakAtomicity))
	dec, _ := sender.BuildDecision(200, g, g.Members)
	_ = dec
	pending := sender.Propose(300, []byte("pending"), sem(oal.TotalOrder, oal.WeakAtomicity))

	st := sender.BuildState(400, 0, 0)
	if string(st.AppState) != "app-state-v7" {
		t.Fatalf("app state: %q", st.AppState)
	}
	if len(st.Delivered) == 0 {
		t.Fatalf("no delivered ids transferred")
	}
	if len(st.Pending) != 2 {
		t.Fatalf("pending bodies: %d", len(st.Pending))
	}

	var joinerDeliveries []Delivery
	joiner := New(1, params, Config{
		Install:   func(b []byte) { installed = slices.Clone(b) },
		OnDeliver: func(d Delivery) { joinerDeliveries = append(joinerDeliveries, d) },
	})
	joiner.SetGroup(g)
	joiner.ApplyState(500, st)
	if string(installed) != "app-state-v7" {
		t.Fatalf("installed: %q", installed)
	}
	// The snapshot-covered update is not re-delivered...
	for _, d := range joinerDeliveries {
		if string(d.Payload) == "done" {
			t.Fatalf("snapshot-covered update re-delivered")
		}
	}
	// ...but the pending one flows through the normal path once ordered.
	joiner.AdoptDecision(600, dec)
	dec2, _ := joiner.BuildDecision(700, g, g.Members)
	if dec2.OAL.Find(pending.ID) == nil {
		t.Fatalf("joiner could not order transferred pending body")
	}
}

func TestStateTransferCodecRoundTrip(t *testing.T) {
	params := model.DefaultParams(3)
	g := model.NewGroup(0, []model.ProcessID{0, 1, 2})
	sender := New(0, params, Config{Snapshot: func() []byte { return []byte("s") }})
	sender.SetGroup(g)
	sender.Propose(100, []byte("x"), sem(oal.Unordered, oal.WeakAtomicity))
	st := sender.BuildState(200, 0, 0)
	decoded, err := wire.Decode(wire.Encode(st))
	if err != nil {
		t.Fatalf("codec: %v", err)
	}
	st2 := decoded.(*wire.State)
	if string(st2.AppState) != "s" || len(st2.Pending) != 1 {
		t.Fatalf("decoded state: %+v", st2)
	}
}

func TestAnnounceGroupSetsStableTS(t *testing.T) {
	params := model.DefaultParams(3)
	b := New(0, params, Config{})
	g := model.NewGroup(1, []model.ProcessID{0, 1})
	b.AnnounceGroup(777, g)
	d := b.view.FindOrdinal(1)
	if d == nil || d.Kind != oal.MembershipDesc || d.StableTS != 777 {
		t.Fatalf("membership descriptor: %+v", d)
	}
	if b.Group().Seq != 1 {
		t.Fatalf("group not installed")
	}
}

func TestGapTimeoutJumpsOrdering(t *testing.T) {
	// A proposer restarts and continues with a clock-seeded sequence far
	// past its old numbering. The gap blocks ordering at first; after a
	// full cycle the decider declares it abandoned and jumps.
	h := newHarness(t, 0, 1)
	ghost := &wire.Proposal{
		Header:  wire.Header{From: 0, SendTS: h.tick()},
		ID:      oal.ProposalID{Proposer: 0, Seq: 5_000_001},
		Sem:     sem(oal.TotalOrder, oal.WeakAtomicity),
		Payload: []byte("post-restart"),
	}
	h.members[1].OnProposal(h.now, ghost)

	// First decision: blocked by the (unrepairable) gap; no huge nack
	// storm either.
	dec, missing := h.members[1].BuildDecision(h.tick(), h.group, h.group.Members)
	if len(dec.OAL.Entries) != 0 {
		t.Fatalf("ordered across a fresh gap: %v", dec.OAL.Entries)
	}
	if len(missing) != 0 {
		t.Fatalf("nacked a multi-million gap: %d ids", len(missing))
	}
	// After more than a cycle the gap is abandoned and the update is
	// ordered.
	h.now = h.now.Add(h.params.CycleLen() + 1)
	dec2, _ := h.members[1].BuildDecision(h.tick(), h.group, h.group.Members)
	if len(dec2.OAL.Entries) != 1 || dec2.OAL.Entries[0].ID != ghost.ID {
		t.Fatalf("gap not abandoned: %v", dec2.OAL.Entries)
	}
	// A straggler body with a pre-jump sequence is now stale and must be
	// rejected everywhere.
	stale := &wire.Proposal{
		Header:  wire.Header{From: 0, SendTS: h.tick()},
		ID:      oal.ProposalID{Proposer: 0, Seq: 3},
		Sem:     sem(oal.TotalOrder, oal.WeakAtomicity),
		Payload: []byte("stale"),
	}
	h.members[1].OnProposal(h.now, stale)
	if h.members[1].ids.body(stale.ID) != nil {
		t.Fatalf("stale pre-jump body stored")
	}
}

// A decision orders at most MaxOrdinalsPerDecision proposals, oldest
// first; the rest stay orderable and go into the decisions that follow,
// so nothing is lost, nothing is nacked and per-proposer order holds.
func TestDecisionOrdersABoundedBatch(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	const total = 2*MaxOrdinalsPerDecision + 5
	var want []string
	for i := 0; i < total; i++ {
		payload := string(rune('a'+i%26)) + string(rune('0'+i/26))
		h.propose(model.ProcessID(i%2), payload, sem(oal.TotalOrder, oal.StrongAtomicity))
		want = append(want, payload)
	}
	for left, who := total, model.ProcessID(2); left > 0; who = h.group.Successor(who) {
		before := h.members[who].HighestOrdinal()
		dec, missing := h.members[who].BuildDecision(h.tick(), h.group, h.group.Members)
		h.adopt(dec)
		if len(missing) != 0 {
			t.Fatalf("waiting bodies reported missing: %v", missing)
		}
		got := int(h.members[who].HighestOrdinal() - before)
		if got != min(left, MaxOrdinalsPerDecision) {
			t.Fatalf("decision ordered %d of %d waiting, bound %d", got, left, MaxOrdinalsPerDecision)
		}
		if left -= got; (left > 0) != h.members[h.group.Successor(who)].Orderable(h.now) {
			t.Fatalf("%d left but Orderable=%v at the successor", left, left == 0)
		}
	}
	h.rotate()
	for id := range h.members {
		if got := h.payloads(id); !slices.Equal(got, want) {
			t.Fatalf("p%d delivered %v, want send order %v", id, got, want)
		}
	}
}

// An update purged by an earlier view change is skipped by every
// member's dependency and FIFO checks from then on, so members may
// deliver what depends on it or follows it. A later reconciliation must
// not orphan those: only purges it makes itself can.
func TestReconcileKeepsDependantsOfEarlierPurge(t *testing.T) {
	h := newHarness(t, 0, 1, 2, 3, 4)
	// Ordinal 1: p4's update, whose body never left p4; p4 then departs
	// and the first election purges it as lost.
	h.members[4].Propose(h.tick(), []byte("lost"), sem(oal.TotalOrder, oal.StrongAtomicity))
	dec, _ := h.members[4].BuildDecision(h.tick(), h.group, h.group.Members)
	h.adopt(dec)
	h.electAt(0, 4)
	// A strong update by p1 whose hdo covers the purged ordinal 1; its body
	// reaches everyone but p3.
	u := h.propose(1, "after-purge", sem(oal.TotalOrder, oal.StrongAtomicity), 3)
	if u.HDO < 1 {
		t.Fatalf("setup: hdo %d does not cover the purged ordinal", u.HDO)
	}
	h.decide(0)
	h.decide(1)
	h.decide(2)
	for _, id := range []model.ProcessID{0, 1, 2} {
		if !h.members[id].Delivered(u.ID) {
			t.Fatalf("setup: p%d did not deliver the update", id)
		}
	}
	// p3, which never held the body, wins the next election.
	h.electAt(3)
	for _, id := range h.group.Members {
		if d := h.members[id].CurrentView().Find(u.ID); d == nil || d.Undeliverable {
			t.Fatalf("p%d: a delivered update was orphaned by an earlier purge: %v", id, d)
		}
	}
}

// A joiner delivers weak/unordered updates on receipt while it waits for
// admission. When the group orders (and truncates) one before the state
// transfer arrives, the transfer covers it: the joiner must stop listing
// it as delivered-but-unordered, or the next election orders it again
// and every member whose delivered mark went with the truncation
// delivers it twice.
func TestStateTransferDropsOrderedDPD(t *testing.T) {
	params := model.DefaultParams(3)
	g := model.NewGroup(0, []model.ProcessID{0, 1, 2})
	proposer := New(2, params, Config{})
	proposer.SetGroup(g)
	ordered := proposer.Propose(100, []byte("ordered"), sem(oal.Unordered, oal.WeakAtomicity))
	later := proposer.Propose(110, []byte("later"), sem(oal.Unordered, oal.WeakAtomicity))

	server := New(0, params, Config{})
	server.SetGroup(g)
	server.OnProposal(120, ordered)
	server.BuildDecision(200, g, g.Members)

	joiner := New(1, params, Config{})
	joiner.OnProposal(130, ordered)
	joiner.OnProposal(140, later)
	if dpd := joiner.DPD(); len(dpd) != 2 {
		t.Fatalf("setup: joiner dpd %v", dpd)
	}
	joiner.ApplyState(300, server.BuildState(300, 0, 0))
	if dpd := joiner.DPD(); len(dpd) != 1 || dpd[0] != later.ID {
		t.Fatalf("dpd after the transfer: %v, want only %v", dpd, later.ID)
	}
}
