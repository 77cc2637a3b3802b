package broadcast

import (
	"fmt"
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// harness drives a set of broadcast members directly (no network, no
// membership layer): proposals are fanned out synchronously and the
// decider role is rotated by explicit calls.
type harness struct {
	t       *testing.T
	params  model.Params
	group   model.Group
	members map[model.ProcessID]*Broadcast
	deliv   map[model.ProcessID][]Delivery
	now     model.Time
}

func newHarness(t *testing.T, ids ...model.ProcessID) *harness {
	h := &harness{
		t:       t,
		params:  model.DefaultParams(len(ids)),
		group:   model.NewGroup(0, ids),
		members: make(map[model.ProcessID]*Broadcast),
		deliv:   make(map[model.ProcessID][]Delivery),
		now:     1000,
	}
	for _, id := range ids {
		id := id
		h.members[id] = New(id, h.params, Config{
			OnDeliver: func(d Delivery) { h.deliv[id] = append(h.deliv[id], d) },
		})
		h.members[id].SetGroup(h.group)
	}
	return h
}

func (h *harness) tick() model.Time {
	h.now += model.Time(h.params.D)
	return h.now
}

// propose creates a proposal at from and fans the body out to everyone
// else (optionally skipping some receivers).
func (h *harness) propose(from model.ProcessID, payload string, sem oal.Semantics, skip ...model.ProcessID) *wire.Proposal {
	p := h.members[from].Propose(h.tick(), []byte(payload), sem)
	h.fanout(p, skip...)
	return p
}

func (h *harness) fanout(p *wire.Proposal, skip ...model.ProcessID) {
	sk := model.NewProcessSet(skip...)
	for id, m := range h.members {
		if id == p.From || sk.Has(id) {
			continue
		}
		m.OnProposal(h.now, p)
	}
}

// decide has `who` build a decision and everyone else adopt it.
func (h *harness) decide(who model.ProcessID, skip ...model.ProcessID) *wire.Decision {
	dec, _ := h.members[who].BuildDecision(h.tick(), h.group, h.group.Members)
	h.adopt(dec, skip...)
	return dec
}

func (h *harness) adopt(dec *wire.Decision, skip ...model.ProcessID) {
	sk := model.NewProcessSet(skip...)
	for id, m := range h.members {
		if id == dec.From || sk.Has(id) {
			continue
		}
		m.AdoptDecision(h.now, dec)
	}
}

// rotate runs one full decider rotation.
func (h *harness) rotate() {
	for _, id := range h.group.Members {
		h.decide(id)
	}
}

func (h *harness) payloads(id model.ProcessID) []string {
	var out []string
	for _, d := range h.deliv[id] {
		out = append(out, string(d.Payload))
	}
	return out
}

func sem(o oal.Order, a oal.Atomicity) oal.Semantics { return oal.Semantics{Order: o, Atomicity: a} }

func TestWeakUnorderedDeliversOnReceipt(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	h.propose(0, "hello", sem(oal.Unordered, oal.WeakAtomicity))
	for _, id := range h.group.Members {
		got := h.payloads(id)
		if len(got) != 1 || got[0] != "hello" {
			t.Fatalf("p%d deliveries: %v", id, got)
		}
		if h.deliv[id][0].Ordinal != oal.None {
			t.Fatalf("fast delivery should have no ordinal")
		}
	}
	// The proposer's dpd lists it until it is ordered.
	if dpd := h.members[0].DPD(); len(dpd) != 1 {
		t.Fatalf("dpd: %v", dpd)
	}
	h.decide(0)
	if dpd := h.members[0].DPD(); len(dpd) != 0 {
		t.Fatalf("dpd after ordering: %v", dpd)
	}
}

func TestDuplicateProposalDeliveredOnce(t *testing.T) {
	h := newHarness(t, 0, 1)
	p := h.propose(0, "x", sem(oal.Unordered, oal.WeakAtomicity))
	h.members[1].OnProposal(h.now, p)
	h.members[1].OnProposal(h.now, p)
	if got := h.payloads(1); len(got) != 1 {
		t.Fatalf("deliveries: %v", got)
	}
}

func TestTotalOrderDeliversInOrdinalOrder(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// p1's body reaches p2 late: p2 must not deliver "b" before "a".
	pa := h.propose(0, "a", sem(oal.TotalOrder, oal.WeakAtomicity), 2)
	h.propose(1, "b", sem(oal.TotalOrder, oal.WeakAtomicity))
	h.decide(0) // orders a (o1) then b (o2)

	// p2 has b's body and the oal, but a is missing: nothing delivered.
	if got := h.payloads(2); len(got) != 0 {
		t.Fatalf("p2 delivered out of order: %v", got)
	}
	// Body of a arrives late: both deliver, in order.
	h.members[2].OnProposal(h.tick(), pa)
	if got := h.payloads(2); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("p2 deliveries: %v", got)
	}
	// Other members delivered in the same order.
	for _, id := range []model.ProcessID{0, 1} {
		got := h.payloads(id)
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("p%d deliveries: %v", id, got)
		}
	}
	// Ordinals are 1 and 2.
	if h.deliv[0][0].Ordinal != 1 || h.deliv[0][1].Ordinal != 2 {
		t.Fatalf("ordinals: %v %v", h.deliv[0][0].Ordinal, h.deliv[0][1].Ordinal)
	}
}

func TestStrongAtomicityWaitsForMajorityAcks(t *testing.T) {
	h := newHarness(t, 0, 1, 2, 3, 4)
	h.propose(0, "s", sem(oal.TotalOrder, oal.StrongAtomicity))
	dec := h.decide(0)
	// After one decision only the decider's ack bit is set; receivers
	// hold their own ack locally, giving each at most 2 known acks — not
	// a majority of 5.
	d := dec.OAL.Entries[0]
	if d.Acks.Count() != 1 {
		t.Fatalf("decision acks: %d", d.Acks.Count())
	}
	for _, id := range h.group.Members {
		if got := h.payloads(id); len(got) != 0 {
			t.Fatalf("p%d delivered before majority acks: %v", id, got)
		}
	}
	// Rotate the decider: each decision accumulates the new decider's
	// ack. After p1 and p2 decide, the oal shows acks {0,1,2} = majority.
	h.decide(1)
	h.decide(2)
	for _, id := range h.group.Members {
		if got := h.payloads(id); len(got) != 1 || got[0] != "s" {
			t.Fatalf("p%d after majority: %v", id, got)
		}
	}
}

func TestStrictAtomicityWaitsForAllAcks(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	h.propose(0, "strict", sem(oal.TotalOrder, oal.StrictAtomicity))
	h.decide(0)
	// Shared oal shows acks {0}; p1 and p2 each add only their own local
	// ack, so nobody can prove full receipt yet.
	for _, id := range h.group.Members {
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered before full acks", id)
		}
	}
	h.decide(1)
	// Shared acks {0,1}: p2 completes the set with its own local ack and
	// may deliver; p0 and p1 still cannot prove p2 has the body.
	for _, id := range []model.ProcessID{0, 1} {
		if len(h.payloads(id)) != 0 {
			t.Fatalf("p%d delivered before proving full acks", id)
		}
	}
	if got := h.payloads(2); len(got) != 1 {
		t.Fatalf("p2 with complete local knowledge did not deliver: %v", got)
	}
	h.decide(2)
	for _, id := range h.group.Members {
		if got := h.payloads(id); len(got) != 1 {
			t.Fatalf("p%d after full acks: %v", id, got)
		}
	}
}

func TestStrongAtomicityHonoursHDO(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// First update gets ordinal 1 but p2 never receives the body, so its
	// ack set stays {0,1}.
	h.propose(0, "dep", sem(oal.Unordered, oal.StrongAtomicity), 2)
	h.decide(0)
	h.decide(1)
	h.decide(2)
	// Second update depends on ordinal 1 (hdo=1).
	p2 := h.members[0].Propose(h.tick(), []byte("dependent"), sem(oal.Unordered, oal.StrongAtomicity))
	if p2.HDO != 1 {
		t.Fatalf("hdo: %d", p2.HDO)
	}
	h.fanout(p2)
	h.rotate()
	// dep has acks {0,1} (majority of 3) so both deliver everywhere that
	// has bodies; p2 lacks dep's body so it delivers only "dependent"
	// once dep is majority-acked.
	if got := h.payloads(0); len(got) != 2 {
		t.Fatalf("p0: %v", got)
	}
	got2 := h.payloads(2)
	if len(got2) != 1 || got2[0] != "dependent" {
		t.Fatalf("p2: %v", got2)
	}
}

func TestTimeOrderSettlesAfterDelta(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	// Two time-ordered proposals; the later-sent one is proposed first
	// in wall order but must be delivered second.
	early := h.members[0].Propose(2000, []byte("early"), sem(oal.TimeOrder, oal.WeakAtomicity))
	late := h.members[1].Propose(2100, []byte("late"), sem(oal.TimeOrder, oal.WeakAtomicity))
	h.now = 2200
	h.fanout(late)
	h.fanout(early)
	// Decision at a timestamp too close to the sends: not settled yet.
	dec, _ := h.members[2].BuildDecision(2200, h.group, h.group.Members)
	h.adopt(dec)
	if n := len(h.payloads(0)); n != 0 {
		t.Fatalf("delivered before settle: %d", n)
	}
	// A much later decision settles both.
	h.now = 2200 + model.Time(10*h.params.Delta)
	dec2, _ := h.members[0].BuildDecision(h.now, h.group, h.group.Members)
	h.adopt(dec2)
	for _, id := range h.group.Members {
		got := h.payloads(id)
		if len(got) != 2 || got[0] != "early" || got[1] != "late" {
			t.Fatalf("p%d time order: %v", id, got)
		}
	}
}

func TestAckPropagationThroughRotation(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	h.propose(1, "u", sem(oal.TotalOrder, oal.WeakAtomicity))
	h.decide(0)
	h.decide(1)
	dec := h.decide(2)
	d := dec.OAL.Entries[0]
	for _, id := range h.group.Members {
		if !d.Acks.Has(id) {
			t.Fatalf("ack of p%d missing after full rotation: %v", id, d.Acks)
		}
	}
}

func TestStaleDecisionRejected(t *testing.T) {
	h := newHarness(t, 0, 1)
	dec1 := h.decide(0)
	h.decide(1)
	if adopted, _ := h.members[1].AdoptDecision(h.now, dec1); adopted {
		t.Fatalf("stale decision adopted")
	}
}

func TestMonotonicDecisionTimestamps(t *testing.T) {
	h := newHarness(t, 0, 1)
	dec1 := h.decide(0)
	// Building with a non-advancing clock still yields a newer stamp.
	dec2, _ := h.members[1].BuildDecision(dec1.SendTS, h.group, h.group.Members)
	if dec2.SendTS <= dec1.SendTS {
		t.Fatalf("timestamps not monotonic: %v then %v", dec1.SendTS, dec2.SendTS)
	}
}

func TestNackAndRetransmit(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	h.propose(0, "lostbody", sem(oal.TotalOrder, oal.WeakAtomicity), 2)
	dec, _ := h.members[0].BuildDecision(h.tick(), h.group, h.group.Members)
	// p2 adopts a decision referencing a body it lacks.
	_, missing := h.members[2].AdoptDecision(h.now, dec)
	if len(missing) != 1 || missing[0].Proposer != 0 {
		t.Fatalf("missing: %v", missing)
	}
	// Rate limiting: a newer decision arriving within D does not
	// re-request the same body.
	dec2, _ := h.members[0].BuildDecision(h.now+1, h.group, h.group.Members)
	_, missing2 := h.members[2].AdoptDecision(h.now+1, dec2)
	if len(missing2) != 0 {
		t.Fatalf("nack not rate-limited: %v", missing2)
	}
	// p1 answers the nack; p2 delivers.
	nack := &wire.Nack{Header: wire.Header{From: 2, SendTS: h.now}, Missing: missing}
	bodies := h.members[1].OnNack(nack)
	if len(bodies) != 1 {
		t.Fatalf("retransmit bodies: %d", len(bodies))
	}
	h.members[2].OnProposal(h.tick(), bodies[0])
	if got := h.payloads(2); len(got) != 1 || got[0] != "lostbody" {
		t.Fatalf("p2 after retransmit: %v", got)
	}
	// OnNack for unknown bodies returns nothing.
	if out := h.members[2].OnNack(&wire.Nack{Missing: []oal.ProposalID{{Proposer: 9, Seq: 9}}}); len(out) != 0 {
		t.Fatalf("unexpected retransmit: %v", out)
	}
}

func TestSequenceGapBlocksOrderingAndIsNacked(t *testing.T) {
	h := newHarness(t, 0, 1)
	// p0 sends seq 1 (lost everywhere except p0... here: suppress fanout)
	// then seq 2 which p1 receives.
	p1 := h.members[0].Propose(h.tick(), []byte("one"), sem(oal.TotalOrder, oal.WeakAtomicity))
	p2 := h.members[0].Propose(h.tick(), []byte("two"), sem(oal.TotalOrder, oal.WeakAtomicity))
	_ = p1
	h.members[1].OnProposal(h.now, p2)

	// p1 as decider cannot order seq 2 without seq 1 and requests it.
	dec, missing := h.members[1].BuildDecision(h.tick(), h.group, h.group.Members)
	if len(dec.OAL.Entries) != 0 {
		t.Fatalf("decider ordered across a gap: %v", dec.OAL.Entries)
	}
	if len(missing) != 1 || missing[0] != (oal.ProposalID{Proposer: 0, Seq: 1}) {
		t.Fatalf("gap nack: %v", missing)
	}
	// After the retransmit, both are ordered in sequence order.
	h.members[1].OnProposal(h.tick(), p1)
	dec2, _ := h.members[1].BuildDecision(h.tick(), h.group, h.group.Members)
	if len(dec2.OAL.Entries) != 2 || dec2.OAL.Entries[0].ID.Seq != 1 || dec2.OAL.Entries[1].ID.Seq != 2 {
		t.Fatalf("ordering after gap fill: %v", dec2.OAL.Entries)
	}
}

func TestSuppressSenderBlocksDeliveryAndExpires(t *testing.T) {
	h := newHarness(t, 0, 1)
	h.members[1].SuppressSender(0, h.now)
	p := h.members[0].Propose(h.tick(), []byte("sus"), sem(oal.Unordered, oal.WeakAtomicity))
	h.members[1].OnProposal(h.now, p)
	if len(h.payloads(1)) != 0 {
		t.Fatalf("suppressed proposal delivered")
	}
	// The mark auto-clears after one cycle.
	h.now = h.now.Add(h.params.CycleLen() + 1)
	h.members[1].OnProposal(h.now, p) // duplicate: ignored, but triggers tryDeliver
	if got := h.payloads(1); len(got) != 1 {
		t.Fatalf("suppression did not expire: %v", got)
	}
}

func TestTruncationAfterStability(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	h.propose(0, "old", sem(oal.TotalOrder, oal.WeakAtomicity))
	h.rotate() // orders + full acks accumulate
	h.rotate() // stability observed
	// Advance well past a cycle and rotate again: the entry is truncated.
	h.now = h.now.Add(2 * h.params.CycleLen())
	h.rotate()
	dec := h.decide(0)
	if len(dec.OAL.Entries) != 0 {
		t.Fatalf("stable entry not truncated: %v", dec.OAL.Entries)
	}
	// Ordinal counter keeps increasing after truncation.
	h.propose(1, "new", sem(oal.TotalOrder, oal.WeakAtomicity))
	dec2 := h.decide(1)
	if dec2.OAL.Entries[0].Ordinal != 2 {
		t.Fatalf("ordinal after truncation: %d", dec2.OAL.Entries[0].Ordinal)
	}
	// Everyone delivered exactly old, new.
	for _, id := range h.group.Members {
		got := h.payloads(id)
		if len(got) != 2 || got[0] != "old" || got[1] != "new" {
			t.Fatalf("p%d: %v", id, got)
		}
	}
}

func TestBodyGCAfterTruncation(t *testing.T) {
	h := newHarness(t, 0, 1)
	p := h.propose(0, "gc", sem(oal.TotalOrder, oal.WeakAtomicity))
	h.rotate()
	h.rotate()
	h.now = h.now.Add(2 * h.params.CycleLen())
	h.rotate()
	h.rotate()
	if n := bodyCount(h.members[0]); n != 0 {
		t.Fatalf("bodies not collected: %d", n)
	}
	// The delivered mark goes with the descriptor; a straggler duplicate
	// is rejected as stale instead of being re-delivered.
	for id, m := range h.members {
		if n := deliveredCount(m); n != 0 {
			t.Fatalf("p%d keeps %d delivered marks past truncation", id, n)
		}
		m.OnProposal(h.tick(), p)
		if got := h.payloads(id); len(got) != 1 {
			t.Fatalf("p%d re-delivered a truncated update: %v", id, got)
		}
		if bodyCount(m) != 0 {
			t.Fatalf("p%d stored a stale body", id)
		}
	}
}

func TestProposeBumpsSeqPastObservedOwnIDs(t *testing.T) {
	h := newHarness(t, 0, 1)
	// p0 observes one of "its own" proposals with a high seq (pre-crash
	// incarnation) and must not collide.
	ghost := &wire.Proposal{
		Header: wire.Header{From: 0, SendTS: 500},
		ID:     oal.ProposalID{Proposer: 0, Seq: 41},
		Sem:    sem(oal.Unordered, oal.WeakAtomicity),
	}
	h.members[0].OnProposal(h.now, ghost)
	p := h.members[0].Propose(h.tick(), []byte("fresh"), sem(oal.Unordered, oal.WeakAtomicity))
	if p.ID.Seq != 42 {
		t.Fatalf("seq collision: %d", p.ID.Seq)
	}
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, 0, 1)
	h.propose(0, "a", sem(oal.Unordered, oal.WeakAtomicity))
	st := h.members[0].Stats()
	if st.Proposed != 1 || st.Delivered != 1 || st.DeliveredFast != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if h.members[0].String() == "" {
		t.Fatalf("String empty")
	}
}

func TestHighestOrdinalAndLastDecisionTS(t *testing.T) {
	h := newHarness(t, 0, 1)
	if h.members[0].HighestOrdinal() != 0 || h.members[0].LastDecisionTS() != 0 {
		t.Fatalf("fresh state not zero")
	}
	h.propose(0, "a", sem(oal.TotalOrder, oal.WeakAtomicity))
	dec := h.decide(0)
	if h.members[1].HighestOrdinal() != 1 {
		t.Fatalf("highest: %d", h.members[1].HighestOrdinal())
	}
	if h.members[1].LastDecisionTS() != dec.SendTS {
		t.Fatalf("lastDecTS: %v vs %v", h.members[1].LastDecisionTS(), dec.SendTS)
	}
}

func TestCurrentViewCarriesOwnAcks(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	h.propose(0, "v", sem(oal.TotalOrder, oal.StrictAtomicity))
	h.decide(0)
	// p1 received the body; its view must show its own ack even though
	// no decision carries it yet.
	v := h.members[1].CurrentView()
	if !v.Entries[0].Acks.Has(1) {
		t.Fatalf("own ack missing from view: %v", v.Entries[0].Acks)
	}
	// The returned view is a copy.
	v.Entries[0].Acks.Add(9)
	if h.members[1].CurrentView().Entries[0].Acks.Has(9) {
		t.Fatalf("CurrentView returned live state")
	}
}

func TestManyProposalsAllSemantics(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	sems := []oal.Semantics{
		sem(oal.Unordered, oal.WeakAtomicity),
		sem(oal.Unordered, oal.StrongAtomicity),
		sem(oal.Unordered, oal.StrictAtomicity),
		sem(oal.TotalOrder, oal.WeakAtomicity),
		sem(oal.TotalOrder, oal.StrongAtomicity),
		sem(oal.TotalOrder, oal.StrictAtomicity),
		sem(oal.TimeOrder, oal.WeakAtomicity),
		sem(oal.TimeOrder, oal.StrongAtomicity),
		sem(oal.TimeOrder, oal.StrictAtomicity),
	}
	const rounds = 4
	want := 0
	for r := 0; r < rounds; r++ {
		for i, sm := range sems {
			from := h.group.Members[(r+i)%3]
			h.propose(from, fmt.Sprintf("m-%d-%d", r, i), sm)
			want++
		}
		h.rotate()
	}
	// Settle time order and remaining atomicity.
	h.now = h.now.Add(10 * h.params.Delta)
	h.rotate()
	h.rotate()
	for _, id := range h.group.Members {
		if got := len(h.payloads(id)); got != want {
			t.Fatalf("p%d delivered %d/%d", id, got, want)
		}
	}
	// Total-order updates appear in identical relative order everywhere.
	totals := func(id model.ProcessID) []string {
		var out []string
		for _, d := range h.deliv[id] {
			if d.Sem.Order == oal.TotalOrder {
				out = append(out, string(d.Payload))
			}
		}
		return out
	}
	ref := totals(0)
	for _, id := range []model.ProcessID{1, 2} {
		got := totals(id)
		if len(got) != len(ref) {
			t.Fatalf("total-order count mismatch")
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order diverges at %d: %v vs %v", i, got[i], ref[i])
			}
		}
	}
	// Time-order updates are delivered in send-timestamp order.
	for _, id := range h.group.Members {
		var last model.Time
		for _, d := range h.deliv[id] {
			if d.Sem.Order != oal.TimeOrder {
				continue
			}
			if d.SendTS < last {
				t.Fatalf("p%d time order violated", id)
			}
			last = d.SendTS
		}
	}
}

func TestTruncatedEntryDeliveredOnAdoption(t *testing.T) {
	// Regression: a member whose delivery was blocked (here: strict
	// atomicity without full acks in its view) must still deliver an
	// update when a decision truncates it away — truncation proves
	// global stability.
	params := model.DefaultParams(3)
	g := model.NewGroup(1, []model.ProcessID{0, 1, 2})
	var got []string
	b := New(1, params, Config{OnDeliver: func(d Delivery) { got = append(got, string(d.Payload)) }})
	b.SetGroup(g)

	body := &wire.Proposal{
		Header:  wire.Header{From: 0, SendTS: 50},
		ID:      oal.ProposalID{Proposer: 0, Seq: 1},
		Sem:     oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrictAtomicity},
		Payload: []byte("stable-but-blocked"),
	}
	b.OnProposal(60, body)

	l1 := oal.NewList()
	var acks oal.AckSet
	acks.Add(0)
	l1.AppendUpdate(body.ID, body.Sem, body.SendTS, oal.None, acks)
	b.AdoptDecision(100, &wire.Decision{
		Header: wire.Header{From: 0, SendTS: 100}, Group: g, OAL: *l1, Alive: g.Members,
	})
	if len(got) != 0 {
		t.Fatalf("delivered without full acks: %v", got)
	}

	// A later decision arrives with the entry already truncated.
	l2 := &oal.List{Next: 2}
	b.AdoptDecision(200, &wire.Decision{
		Header: wire.Header{From: 2, SendTS: 200}, Group: g, OAL: *l2, Alive: g.Members,
	})
	if len(got) != 1 || got[0] != "stable-but-blocked" {
		t.Fatalf("truncated entry not delivered: %v", got)
	}
}

// deepMember returns a member whose view holds depth delivered updates
// (and its buffer their bodies), none of them old enough to truncate.
func deepMember(tb testing.TB, depth int) (*Broadcast, model.Time) {
	params := model.DefaultParams(3)
	group := model.NewGroup(1, []model.ProcessID{0, 1, 2})
	decider := New(0, params, Config{})
	b := New(1, params, Config{})
	decider.SetGroup(group)
	b.SetGroup(group)
	now := model.Time(1_000_000)
	for i := 0; i < depth; i++ {
		now++
		b.OnProposal(now, decider.Propose(now, []byte("payload"), sem(oal.TotalOrder, oal.StrongAtomicity)))
	}
	now = now.Add(params.D)
	dec, _ := decider.BuildDecision(now, group, group.Members)
	if adopted, missing := b.AdoptDecision(now, dec); !adopted || len(missing) != 0 {
		tb.Fatalf("setup decision: adopted=%v missing=%v", adopted, missing)
	}
	if got := b.Stats().Delivered; got != uint64(depth) || b.view.Len() != depth || bodyCount(b) != depth {
		tb.Fatalf("setup: delivered %d, view %d, bodies %d, want %d each", got, b.view.Len(), bodyCount(b), depth)
	}
	return b, now
}

// BenchmarkOnProposalDeep measures ingesting one not-yet-ordered body at
// a member whose view and buffer are depth entries deep, and fails when
// the cost grows with the depth: before the view was indexed it was
// O(depth log depth) (a sort of the buffer and a scan of the view per
// body).
func BenchmarkOnProposalDeep(b *testing.B) {
	nsPerOp := make(map[int]float64)
	for _, depth := range []int{100, 2000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			m, now := deepMember(b, depth)
			p := &wire.Proposal{
				Header:  wire.Header{From: 2, SendTS: now},
				ID:      oal.ProposalID{Proposer: 2},
				Sem:     sem(oal.TotalOrder, oal.StrongAtomicity),
				Payload: []byte("payload"),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ID.Seq = uint64(i + 1)
				m.OnProposal(now, p)
				m.ids.dropBody(p.ID) // keep the pending set at one body
			}
			nsPerOp[depth] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if shallow, deep := nsPerOp[100], nsPerOp[2000]; shallow > 0 && deep > 1.5*shallow {
		b.Fatalf("OnProposal costs %.0f ns at depth 2000 and %.0f ns at depth 100: it grows with the view", deep, shallow)
	}
}

// The delivered set used to grow by one mark per delivery for the life
// of the node. Marks now go when their descriptor is truncated, so under
// steady traffic the set stays as deep as the view, and the orderedSeq
// rule keeps a late duplicate from being delivered a second time.
func TestDeliveredMarksStayBounded(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	var early *wire.Proposal
	deepest := 0
	const rounds = 400
	for r := 0; r < rounds; r++ {
		from := model.ProcessID(r % 3)
		p := h.propose(from, fmt.Sprintf("u%d", r), sem(oal.Order(r%3), oal.Atomicity(r/3%3)))
		if r == 10 {
			early = p
		}
		h.decide(model.ProcessID((r + 1) % 3))
		for _, m := range h.members {
			marks := deliveredCount(m)
			deepest = max(deepest, marks)
			if marks > m.view.Len()+len(m.dpd) {
				t.Fatalf("round %d: %d delivered marks for a view of %d (+%d dpd)", r, marks, m.view.Len(), len(m.dpd))
			}
		}
	}
	h.rotate() // the last updates still wait for acknowledgements
	h.rotate()
	if deepest > rounds/4 {
		t.Fatalf("delivered set reached %d marks over %d deliveries: not bounded by the truncation horizon", deepest, rounds)
	}
	for id, m := range h.members {
		if got := len(h.deliv[id]); got != rounds {
			t.Fatalf("p%d delivered %d of %d", id, got, rounds)
		}
		if m.Delivered(early.ID) {
			t.Fatalf("p%d still marks a long-truncated update", id)
		}
		m.OnProposal(h.tick(), early)
		if got := len(h.deliv[id]); got != rounds {
			t.Fatalf("p%d re-delivered a late duplicate of a truncated update", id)
		}
	}
}

// A group formation restarts the ordinal space, so a decision of a newer
// lineage is adopted however short its log: a joiner holding a longer
// view of a dead lineage would otherwise refuse every decision of the
// group it is joining until that group's log outgrew its stale one.
// Within a lineage, and from an older one, a shorter log stays stale.
func TestAdoptsShorterDecisionOfNewerLineage(t *testing.T) {
	params := model.DefaultParams(3)
	g := model.NewGroup(10, []model.ProcessID{0, 1, 2})
	decider := func(self model.ProcessID, lineage model.GroupSeq, updates int, at model.Time) *wire.Decision {
		b := New(self, params, Config{})
		b.BeginLineage(lineage)
		b.AnnounceGroup(at, g)
		for i := 0; i < updates; i++ {
			b.Propose(at+model.Time(i+1), []byte("u"), sem(oal.TotalOrder, oal.WeakAtomicity))
		}
		dec, _ := b.BuildDecision(at+100, g, g.Members)
		return dec
	}
	joiner := New(0, params, Config{})
	if ok, _ := joiner.AdoptDecision(1000, decider(1, 10, 5, 500)); !ok || joiner.HighestOrdinal() != 6 {
		t.Fatalf("setup: old lineage not adopted (highest %d)", joiner.HighestOrdinal())
	}
	if ok, _ := joiner.AdoptDecision(2000, decider(2, 5, 0, 1500)); ok {
		t.Fatalf("adopted a shorter decision of an older lineage")
	}
	if ok, _ := joiner.AdoptDecision(2000, decider(2, 10, 0, 1500)); ok {
		t.Fatalf("adopted a shorter decision of the same lineage")
	}
	if ok, _ := joiner.AdoptDecision(3000, decider(2, 20, 0, 2500)); !ok || joiner.Lineage() != 20 || joiner.HighestOrdinal() != 1 {
		t.Fatalf("newer lineage's formation decision not adopted: lineage %d highest %d", joiner.Lineage(), joiner.HighestOrdinal())
	}
}
