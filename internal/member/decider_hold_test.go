package member

import (
	"testing"

	"timewheel/internal/broadcast"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

var totalStrong = oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}

// proposalFrom crafts the next proposal of a remote member.
func (r *rig) proposalFrom(from model.ProcessID, seq uint64) *wire.Proposal {
	return &wire.Proposal{
		Header:  wire.Header{From: from, SendTS: r.env.now},
		ID:      oal.ProposalID{Proposer: from, Seq: seq},
		Sem:     totalStrong,
		Payload: []byte("x"),
	}
}

func (r *rig) decisionsSent() int {
	n := 0
	for _, k := range r.env.sentKinds() {
		if k == wire.KindDecision {
			n++
		}
	}
	return n
}

// slot is the length of an ordering slot under the rig's parameters, D/32.
func (r *rig) slot() model.Duration { return r.p.D / 32 }

// cellAfter is the first edge of broadcast's ordering grid after ts: each
// D/32 slot split into four cells, as evenly as whole microseconds allow.
func (r *rig) cellAfter(ts model.Time) model.Time {
	q := model.Time(r.slot())
	start := ts - ts%q
	next := (ts-start)*4/q + 1
	return start + (next*q+3)/4
}

// slotAfter is the first ordering-slot edge after ts.
func (r *rig) slotAfter(ts model.Time) model.Time {
	q := model.Time(r.slot())
	return ts - ts%q + q
}

var totalWeak = oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.WeakAtomicity}

// handOrdering hands p2 the role with a decision from p1, stamped now,
// that orders k weak updates of p3 whose bodies p2 already holds; p2
// must have joined with p1 next in the ring.
func (r *rig) handOrdering(k int) *wire.Decision {
	var props []*wire.Proposal
	for i := 1; i <= k; i++ {
		p := r.proposalFrom(3, uint64(i))
		p.Sem = totalWeak
		r.m.OnMessage(p)
		props = append(props, p)
	}
	dec := r.decisionFrom(1, r.m.Group())
	var acks oal.AckSet
	acks.Add(1)
	for _, p := range props {
		dec.OAL.AppendUpdate(p.ID, p.Sem, p.SendTS, 0, acks)
	}
	r.m.OnMessage(dec)
	if !r.m.IsDecider() {
		r.t.Fatalf("setup: p2 did not take the role")
	}
	return dec
}

// orderedBy returns how many ordinals the decision last sent assigned,
// against the view's next ordinal before it.
func (r *rig) orderedBy(next oal.Ordinal) int {
	return int(r.env.lastSent().(*wire.Decision).OAL.Next - next)
}

// fireDecide advances the clock to the armed decide timer and fires it.
func (r *rig) fireDecide() {
	at, armed := r.env.timers[TimerDecide]
	if !armed {
		r.t.Fatalf("decide timer not armed")
	}
	r.env.now = at
	delete(r.env.timers, TimerDecide)
	r.m.OnTimer(TimerDecide)
}

// A decider with nothing to order holds the role for D/2, exactly as
// before; with a proposal waiting it decides at the first cell edge of
// the ordering grid after the latest ordering decision: in the handler
// that gave it the role when that edge has passed, on the timer
// otherwise.
func TestDeciderHoldsIdleAndDecidesWithWorkWaiting(t *testing.T) {
	idle := newRig(t, 2)
	idle.join(1) // p1's decision hands p2 the role
	if !idle.m.IsDecider() || idle.decisionsSent() != 0 {
		t.Fatalf("idle decider: isDecider=%v decisions=%d", idle.m.IsDecider(), idle.decisionsSent())
	}
	if at, ok := idle.env.timers[TimerDecide]; !ok || at != idle.env.now.Add(idle.p.D/2) {
		t.Fatalf("idle hold: timer %v armed=%v, want now+D/2", at, ok)
	}
	if got := idle.m.Stats().DecisionsEarly; got != 0 {
		t.Fatalf("idle decider counted %d early decisions", got)
	}

	for _, inCell := range []bool{true, false} {
		busy := newRig(t, 2)
		busy.join(0) // p1 is next; p2 watches
		ordering := busy.bc.LastOrderingTS()
		busy.m.OnMessage(busy.proposalFrom(3, 1))
		if busy.decisionsSent() != 0 {
			t.Fatalf("a non-decider decided on a proposal")
		}
		busy.env.now += 100
		dec := busy.decisionFrom(1, busy.m.Group())
		if !inCell {
			// The handing decision reaches us one cell after it was sent.
			busy.env.now = busy.env.now.Add(busy.slot() / 4)
		}
		busy.m.OnMessage(dec)
		if inCell {
			if busy.decisionsSent() != 0 || !busy.m.IsDecider() {
				t.Fatalf("decided in the cell of the latest ordering decision")
			}
			if at := busy.env.timers[TimerDecide]; at != busy.cellAfter(ordering) || at >= busy.slotAfter(ordering) {
				t.Fatalf("decide timer at %d, want the cell edge %d after %d", at, busy.cellAfter(ordering), ordering)
			}
			busy.fireDecide()
		}
		if busy.decisionsSent() != 1 || busy.m.IsDecider() {
			t.Fatalf("role with work waiting (inCell=%v): decisions=%d isDecider=%v", inCell, busy.decisionsSent(), busy.m.IsDecider())
		}
		if _, armed := busy.env.timers[TimerDecide]; armed {
			t.Fatalf("decide timer left armed after an early decision")
		}
		sent := busy.env.lastSent().(*wire.Decision)
		if n := len(sent.OAL.Entries); n == 0 || sent.OAL.Entries[n-1].ID != (oal.ProposalID{Proposer: 3, Seq: 1}) {
			t.Fatalf("early decision did not order the waiting proposal: %v", sent.OAL.Entries)
		}
		if st := busy.m.Stats(); st.DecisionsEarly != 1 || st.DecisionsSent != 1 || st.DecisionsSlotFull != 0 {
			t.Fatalf("stats: %+v", st)
		}
	}
}

// Once the decisions stamped in a slot have ordered its budget, the next
// ordering decision waits for the next slot edge, and is counted as held
// there; it then orders with the fresh slot's budget.
func TestSpentSlotHoldsOrderingToTheSlotEdge(t *testing.T) {
	r := newRig(t, 2)
	r.join(0)
	r.env.now = r.slotAfter(r.env.now) + 100 // a slot of its own
	dec := r.handOrdering(broadcast.MaxOrdinalsPerDecision)
	r.m.OnMessage(r.proposalFrom(4, 1))
	if r.decisionsSent() != 0 {
		t.Fatalf("ordered in a spent slot")
	}
	if at := r.env.timers[TimerDecide]; at != r.slotAfter(dec.SendTS) {
		t.Fatalf("decide timer at %d, want the slot edge %d", at, r.slotAfter(dec.SendTS))
	}
	r.fireDecide()
	if got := r.orderedBy(dec.OAL.Next); r.decisionsSent() != 1 || got != 1 {
		t.Fatalf("slot edge: decisions=%d ordered %d, want 1 and 1", r.decisionsSent(), got)
	}
	if st := r.m.Stats(); st.DecisionsEarly != 1 || st.DecisionsSlotFull != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// A decision in a partly spent slot orders what the slot has left, at
// the next cell edge; the rest of its batch then waits for the slot edge.
func TestPartialBatchGoesAtTheNextCellEdge(t *testing.T) {
	r := newRig(t, 2)
	r.join(0)
	r.env.now = r.slotAfter(r.env.now) + 10
	const used, waiting = 60, 10
	dec := r.handOrdering(used)
	for seq := uint64(1); seq <= waiting; seq++ {
		r.m.OnMessage(r.proposalFrom(4, seq))
	}
	at := r.env.timers[TimerDecide]
	if r.decisionsSent() != 0 || at != r.cellAfter(dec.SendTS) || at >= r.slotAfter(dec.SendTS) {
		t.Fatalf("decisions=%d timer at %d, want the cell edge %d of the same slot", r.decisionsSent(), at, r.cellAfter(dec.SendTS))
	}
	r.fireDecide()
	if got := r.orderedBy(dec.OAL.Next); got != broadcast.MaxOrdinalsPerDecision-used {
		t.Fatalf("ordered %d, want the %d the slot had left", got, broadcast.MaxOrdinalsPerDecision-used)
	}
	if st := r.m.Stats(); st.DecisionsEarly != 1 || st.DecisionsSlotFull != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if next, full := r.bc.NextOrderingAt(); !full || next != r.slotAfter(dec.SendTS) || !r.bc.Orderable(r.env.now) {
		t.Fatalf("rest of the batch due at %d (full=%v), want the slot edge %d", next, full, r.slotAfter(dec.SendTS))
	}
}

// The idle hold is not an ordering decision: when it ends in a spent slot
// the held decision still goes out — the ring keeps turning — and orders
// nothing, leaving the waiting proposal to the slot edge.
func TestHeldDecisionInASpentSlotOrdersNothing(t *testing.T) {
	r := newRig(t, 2)
	r.m.cfg.DeciderHold = r.slot() / 2 // ends two cells on, in the same slot
	r.join(0)
	r.env.now = r.slotAfter(r.env.now) + 10
	dec := r.handOrdering(broadcast.MaxOrdinalsPerDecision)
	r.m.OnMessage(r.proposalFrom(4, 1))
	if at := r.env.timers[TimerDecide]; at != dec.SendTS.Add(r.slot()/2) || at >= r.slotAfter(dec.SendTS) {
		t.Fatalf("decide timer at %d, want the hold's end %d", at, dec.SendTS.Add(r.slot()/2))
	}
	r.fireDecide()
	if got := r.orderedBy(dec.OAL.Next); r.decisionsSent() != 1 || got != 0 {
		t.Fatalf("held decision: decisions=%d ordered %d, want 1 and 0", r.decisionsSent(), got)
	}
	if st := r.m.Stats(); st.DecisionsEarly != 0 || st.DecisionsSlotFull != 0 {
		t.Fatalf("held decision counted early: %+v", st)
	}
	if !r.bc.Orderable(r.env.now) {
		t.Fatalf("the waiting proposal was dropped")
	}
}

// Both grids stand still: an ordering decision sent late — here past the
// next cell edge — moves none of the edges after it.
func TestLateDecisionMovesNoLaterEdge(t *testing.T) {
	r := newRig(t, 2)
	r.join(0)
	t0 := r.slotAfter(r.env.now)
	r.env.now = t0 + 10
	r.handOrdering(1)
	r.m.OnMessage(r.proposalFrom(4, 1))
	edge := r.cellAfter(t0 + 10)
	if at := r.env.timers[TimerDecide]; at != edge {
		t.Fatalf("decide timer at %d, want %d", at, edge)
	}
	late := edge.Add(r.slot() * 3 / 8) // past the next edge, inside the cell after it
	delete(r.env.timers, TimerDecide)
	r.env.now = late
	r.m.OnTimer(TimerDecide)
	if r.decisionsSent() != 1 || r.bc.LastOrderingTS() != late {
		t.Fatalf("late decision: decisions=%d ordering at %d, want %d", r.decisionsSent(), r.bc.LastOrderingTS(), late)
	}
	// p1 hands the role back and a proposal arrives: it goes at the grid's
	// next edge after the late decision, not a cell after it.
	r.env.now = late + 5
	r.m.OnMessage(r.decisionFrom(1, r.m.Group()))
	r.m.OnMessage(r.proposalFrom(4, 2))
	want := r.cellAfter(late)
	if at := r.env.timers[TimerDecide]; at != want || want-late >= model.Time(r.slot()/4) {
		t.Fatalf("decide timer at %d after a decision sent at %d, want the grid edge %d", at, late, want)
	}
}

// An early ordering decision is never due while its slot has no room, so
// the role cannot spin on a decision that orders nothing: wherever the
// latest ordering decision fell in its slot and whatever it spent, at
// every instant of the two slots after it a due ordering decision has
// room, and one without room is due later, at the slot edge.
func TestNoOrderingDecisionIsDueWithoutRoom(t *testing.T) {
	for _, k := range []int{1, broadcast.MaxOrdinalsPerDecision - 1, broadcast.MaxOrdinalsPerDecision} {
		for _, off := range []model.Time{0, 1, 155, 156, 157, 400, 623, 624} {
			r := newRig(t, 2)
			r.join(0)
			r.env.now = r.slotAfter(r.env.now) + off
			dec := r.handOrdering(k)
			r.m.OnMessage(r.proposalFrom(4, 1))
			if r.decisionsSent() != 0 {
				t.Fatalf("k=%d off=%d: ordered in the cell of the handing decision", k, off)
			}
			for now := dec.SendTS; now < dec.SendTS.Add(2*r.slot()); now += 3 {
				r.env.now = now
				kind, at := r.m.earlyDecision()
				if kind != earlyOrdering && kind != earlySlotFull {
					t.Fatalf("k=%d off=%d now=%d: kind %d with an orderable proposal", k, off, now, kind)
				}
				room := r.bc.OrderingRoom(now)
				if at <= now && room == 0 {
					t.Fatalf("k=%d off=%d now=%d: ordering decision due at %d with no room", k, off, now, at)
				}
				edge := r.slotAfter(dec.SendTS)
				if at <= dec.SendTS || (kind == earlySlotFull && (room != 0 || at != edge)) {
					t.Fatalf("k=%d off=%d now=%d: kind %d due at %d, room %d, slot edge %d", k, off, now, kind, at, room, edge)
				}
			}
		}
	}
}

// While holding the role, the decider decides when a proposal arrives
// (remote or its own) — and only when that proposal can be ordered: every
// early decision assigns at least one ordinal, so the role cannot spin.
func TestProposalArrivalEndsTheHold(t *testing.T) {
	r := newRig(t, 2)
	r.join(1)
	r.env.now = r.env.now.Add(r.slot()) // past the slot of the handing decision
	ordered := func() uint64 { return uint64(r.bc.HighestOrdinal()) }
	base := ordered()

	// A body with a sequence gap cannot be ordered: the hold stays.
	hold := r.env.timers[TimerDecide]
	r.m.OnMessage(r.proposalFrom(3, 7))
	if r.decisionsSent() != 0 || r.m.Stats().DecisionsEarly != 0 {
		t.Fatalf("decided on an unorderable proposal")
	}
	if at, armed := r.env.timers[TimerDecide]; !armed || at != hold {
		t.Fatalf("hold timer moved: %d armed=%v, was %d", at, armed, hold)
	}
	// A contiguous one ends it.
	r.m.OnMessage(r.proposalFrom(4, 1))
	if r.decisionsSent() != 1 || r.m.Stats().DecisionsEarly != 1 || ordered() != base+1 {
		t.Fatalf("arrival did not end the hold: decisions=%d early=%d ordered=%d", r.decisionsSent(), r.m.Stats().DecisionsEarly, ordered()-base)
	}

	// Inside the cell of the handing decision the arrival only brings the
	// timer forward, to the next cell edge, and a second arrival leaves it
	// there.
	paced := newRig(t, 2)
	paced.join(1)
	paced.m.OnMessage(paced.proposalFrom(4, 1))
	at := paced.env.timers[TimerDecide]
	if paced.decisionsSent() != 0 || at != paced.cellAfter(paced.env.now) {
		t.Fatalf("arrival inside the cell: decisions=%d timer=%d now=%d", paced.decisionsSent(), at, paced.env.now)
	}
	paced.env.now += 10
	paced.m.OnMessage(paced.proposalFrom(4, 2))
	if paced.env.timers[TimerDecide] != at {
		t.Fatalf("second arrival moved the timer")
	}
	paced.fireDecide()
	if paced.decisionsSent() != 1 || paced.m.Stats().DecisionsEarly != 1 || uint64(paced.bc.HighestOrdinal()) != base+2 {
		t.Fatalf("cell edge: decisions=%d early=%d", paced.decisionsSent(), paced.m.Stats().DecisionsEarly)
	}

	// Own proposals: the proposal goes out first, then the decision. (A
	// process's first proposal carries a clock-seeded sequence, which is a
	// gap to the decider; p1 orders it here so that the second continues
	// an ordered sequence.) The decision that orders it hands p2 the role
	// with p2's own ack on it unpublished: p2 publishes it at once, in an
	// ack-only decision, and p1's next decision hands the role back.
	own := newRig(t, 2)
	own.join(0)
	first := own.m.Propose([]byte("first"), totalStrong)
	dec := own.decisionFrom(1, own.m.Group())
	dec.OAL.AppendUpdate(first.ID, first.Sem, first.SendTS, first.HDO, 0)
	own.env.now += 100
	dec.SendTS = own.env.now
	own.m.OnMessage(dec)
	if st := own.m.Stats(); own.m.IsDecider() || own.decisionsSent() != 1 || st.DecisionsAckOnly != 1 {
		t.Fatalf("setup: isDecider=%v decisions=%d stats=%+v", own.m.IsDecider(), own.decisionsSent(), st)
	}
	own.env.now += 100
	own.m.OnMessage(own.decisionFrom(1, own.m.Group()))
	if !own.m.IsDecider() || own.decisionsSent() != 1 {
		t.Fatalf("setup: isDecider=%v decisions=%d", own.m.IsDecider(), own.decisionsSent())
	}
	own.env.now = own.env.now.Add(own.slot())
	if own.m.Propose([]byte("second"), totalStrong) == nil {
		t.Fatalf("propose refused")
	}
	kinds := own.env.sentKinds()
	if n := len(kinds); n < 2 || kinds[n-2] != wire.KindProposal || kinds[n-1] != wire.KindDecision {
		t.Fatalf("sent %v, want proposal then decision", kinds)
	}
}

// A decider holding an own ack a Strong delivery still waits on decides
// in the handler that gave it the role — inside the slot of the handing
// decision too — ordering nothing: an ack-only decision. It carries the
// ack, and the role moves on.
func TestAwaitedAckDecidesInline(t *testing.T) {
	r := newRig(t, 2)
	r.join(0) // p1 is next; p2 watches
	r.m.OnMessage(r.proposalFrom(3, 1))
	r.env.now += 100
	dec := r.decisionFrom(1, r.m.Group())
	var acks oal.AckSet
	acks.Add(1)
	id := oal.ProposalID{Proposer: 3, Seq: 1}
	dec.OAL.AppendUpdate(id, totalStrong, r.env.now-100, 0, acks)
	r.m.OnMessage(dec) // p2 adopts, stamps its ack, takes the role and decides
	st := r.m.Stats()
	if r.decisionsSent() != 1 || st.DecisionsEarly != 1 || st.DecisionsAckOnly != 1 || r.m.IsDecider() {
		t.Fatalf("decisions=%d stats=%+v decider=%v", r.decisionsSent(), st, r.m.IsDecider())
	}
	if _, armed := r.env.timers[TimerDecide]; armed {
		t.Fatalf("decide timer left armed after an inline decision")
	}
	sent := r.env.lastSent().(*wire.Decision)
	if d := sent.OAL.Find(id); d == nil || !d.Acks.Has(2) || sent.OAL.Next != dec.OAL.Next {
		t.Fatalf("ack-only decision: %v", sent.OAL.Entries)
	}
	if r.bc.AckAwaited() {
		t.Fatalf("ack still awaited after the decision that carried it")
	}
}

// A decider with nothing to order and no awaited ack, holding a
// time-ordered update no decision has released, decides at exactly the
// update's settle point (SendTS+δ+ε) when that comes before the end of
// its hold: a release decision, counted as the kind its timer was armed
// for, which lets the update be delivered. When the hold ends first, the
// held decision goes out as before.
func TestReleaseDecisionAtTheSettlePoint(t *testing.T) {
	timeWeak := oal.Semantics{Order: oal.TimeOrder, Atomicity: oal.WeakAtomicity}
	// The handing decision is sent and received this long after the
	// update: the hold ends 10 ms later (D - Delta), the settle point is
	// 12 ms after the update.
	for _, tc := range []struct {
		after   model.Duration
		release bool
	}{{5 * model.Millisecond, true}, {1 * model.Millisecond, false}} {
		r := newRig(t, 2)
		r.join(0) // p1 is next; p2 watches
		p := r.proposalFrom(3, 1)
		p.Sem = timeWeak
		r.m.OnMessage(p)
		r.env.now = p.SendTS.Add(tc.after)
		dec := r.decisionFrom(1, r.m.Group())
		var acks oal.AckSet
		acks.Add(1)
		dec.OAL.AppendUpdate(p.ID, timeWeak, p.SendTS, 0, acks)
		r.m.OnMessage(dec)
		if !r.m.IsDecider() || r.decisionsSent() != 0 {
			t.Fatalf("setup: isDecider=%v decisions=%d", r.m.IsDecider(), r.decisionsSent())
		}
		settle := p.SendTS.Add(r.p.Delta + r.p.Epsilon)
		if at := r.env.timers[TimerDecide]; (at == settle) != tc.release {
			t.Fatalf("handed the role +%v after the update: decide timer at %v, settle point %v", tc.after, at, settle)
		}
		r.fireDecide()
		st := r.m.Stats()
		if !tc.release {
			if st.DecisionsEarly != 0 || st.DecisionsRelease != 0 {
				t.Fatalf("held decision counted early: %+v", st)
			}
			continue
		}
		if sent := r.env.lastSent().(*wire.Decision); st.DecisionsEarly != 1 || st.DecisionsRelease != 1 || sent.SendTS != settle {
			t.Fatalf("release decision: stats=%+v stamped %v, want %v", st, sent.SendTS, settle)
		}
		if !r.bc.Delivered(p.ID) {
			t.Fatalf("the release decision did not release the update")
		}
		if at, ok := r.bc.TimeReleaseAt(); ok {
			t.Fatalf("release still pending at %v after the release decision", at)
		}
	}
}

// Ordering decisions keep a slot grid of their own, measured from the
// latest decision that assigned an ordinal: a decision that ordered
// nothing does not push an arriving proposal to a later slot edge.
func TestAckOnlyDecisionsKeepTheOrderingGrid(t *testing.T) {
	r := newRig(t, 2)
	r.join(0) // its decision orders the group's membership descriptor
	ordering := r.bc.LastOrderingTS()
	r.env.now = r.env.now.Add(r.slot())
	r.m.OnMessage(r.decisionFrom(1, r.m.Group())) // orders nothing; p2 takes the role
	if r.bc.LastOrderingTS() != ordering || r.bc.LastDecisionTS() == ordering {
		t.Fatalf("setup: ordering %v decision %v", r.bc.LastOrderingTS(), r.bc.LastDecisionTS())
	}
	r.env.now += 10
	r.m.OnMessage(r.proposalFrom(4, 1))
	if r.decisionsSent() != 1 || r.m.Stats().DecisionsEarly != 1 || r.m.Stats().DecisionsAckOnly != 0 {
		t.Fatalf("the ordering slot after %v has begun: decisions=%d stats=%+v", ordering, r.decisionsSent(), r.m.Stats())
	}
}

// Early decisions belong to failure-free operation only: a decider-less
// process, a singleton group and every election state keep their timing.
func TestNoEarlyDecisionOutsideFailureFree(t *testing.T) {
	r := newRig(t, 2)
	r.join(4) // p2 expects p0
	r.m.OnMessage(r.proposalFrom(3, 1))
	r.timeoutExpected() // p0 silent: 1-failure-receive
	if r.m.State() != State1FailureReceive {
		t.Fatalf("state %v", r.m.State())
	}
	r.m.OnMessage(r.proposalFrom(3, 2))
	r.m.Propose([]byte("mine"), totalStrong)
	for _, q := range []model.ProcessID{1, 3} {
		r.env.now += 10
		r.m.OnMessage(r.ndFrom(q, 0))
	}
	if r.decisionsSent() != 0 || r.m.Stats().DecisionsEarly != 0 {
		t.Fatalf("decided during an election: state %v, sent %v", r.m.State(), r.env.sentKinds())
	}
	// Escalation to n-failure, with proposals still waiting.
	r.timeoutExpected()
	if r.m.State() != StateNFailure {
		t.Fatalf("state %v", r.m.State())
	}
	r.m.OnMessage(r.proposalFrom(3, 3))
	if r.decisionsSent() != 0 {
		t.Fatalf("decided in n-failure")
	}
}

// Every election state has an exit armed. The ring can bring the
// expectation round to this process itself (here through a predecessor
// that answers again, as one holding a stale group does): with nobody to
// watch and no decider duty coming, it used to sit in 1-failure-send
// forever. It now gives the election one cycle and falls back to
// n-failure.
func TestStalledSingleElectionFallsBackToNFailure(t *testing.T) {
	r := newRig(t, 2)
	r.join(4)           // p2 expects p0
	r.timeoutExpected() // suspect p0; the ring starts at p1
	r.env.now += 10
	r.m.OnMessage(r.ndFrom(1, 0)) // our predecessor concurs: we send ours
	if r.m.State() != State1FailureSend {
		t.Fatalf("state %v", r.m.State())
	}
	for _, q := range []model.ProcessID{3, 4, 1} {
		r.env.now += 10
		r.m.OnMessage(r.ndFrom(q, 0))
	}
	if _, _, active := r.m.Detector().Expected(); active {
		t.Fatalf("setup: an expectation is still armed")
	}
	if r.m.State() != State1FailureSend {
		t.Fatalf("state %v", r.m.State())
	}
	at, armed := r.env.timers[TimerExpect]
	if !armed {
		t.Fatalf("1-failure-send with no expectation and no timer: no exit")
	}
	if want := r.env.now.Add(r.p.CycleLen()); at != want {
		t.Fatalf("stall deadline %d, want one cycle from now = %d", at, want)
	}
	r.env.now = at
	r.m.OnTimer(TimerExpect)
	if r.m.State() != StateNFailure {
		t.Fatalf("stalled election ended in %v, want n-failure", r.m.State())
	}
}

// A joiner whose admitting decision arrives late takes no role from it,
// but it must start watching the process the group is waiting for: on a
// loaded host every joiner can get the forming decision late, and a
// group whose members all sit in failure-free with nothing armed never
// decides, never suspects and never readmits its former.
func TestLateAdmittingDecisionArmsSurveillance(t *testing.T) {
	r := newRig(t, 0)
	g := model.NewGroup(1, []model.ProcessID{0, 1, 2, 3, 4})
	l := oal.NewList()
	l.AppendMembership(g)
	r.m.Start()
	sent := r.env.now
	r.env.now = sent.Add(r.p.D) // well past delta+epsilon+sigma
	r.m.OnMessage(&wire.Decision{Header: wire.Header{From: 1, SendTS: sent}, Group: g, OAL: *l, Alive: g.Members})
	if r.m.State() != StateFailureFree || r.m.IsDecider() {
		t.Fatalf("state %v decider=%v", r.m.State(), r.m.IsDecider())
	}
	exp, _, active := r.m.Detector().Expected()
	if !active || exp != 2 {
		t.Fatalf("expecting p%d (active=%v) after a late admission from p1, want p2", exp, active)
	}
	if _, armed := r.env.timers[TimerExpect]; !armed {
		t.Fatalf("no expect timer armed")
	}

	// When the role would have been ours, it is not taken late.
	own := newRig(t, 2)
	own.m.Start()
	own.env.now = sent.Add(own.p.D)
	own.m.OnMessage(&wire.Decision{Header: wire.Header{From: 1, SendTS: sent}, Group: g, OAL: *l, Alive: g.Members})
	if own.m.IsDecider() {
		t.Fatalf("took the decider role from a late decision")
	}
}

// A decision sent before this process dropped back to the join state
// cannot be its admission: it lists the process only because its sender
// had not yet seen it leave. Such decisions are still queued when a
// stalled process excludes itself; taking one as an admission put the
// process back into a group that was busy removing it, and the cold
// reset that followed cost the warm rejoin.
func TestDecisionSentBeforeRejoinIsNoAdmission(t *testing.T) {
	r := newRig(t, 2)
	r.join(4)
	g := r.m.Group()
	stale := r.decisionFrom(0, g) // sent while p2 was still a member
	stale.SendTS = r.env.now.Add(100)
	r.env.now = r.env.now.Add(5 * r.p.D)
	r.m.SelfExclude()
	if r.m.State() != StateJoin {
		t.Fatalf("state %v after self-exclusion", r.m.State())
	}
	r.m.OnMessage(stale)
	if r.m.State() != StateJoin || r.m.HaveGroup() {
		t.Fatalf("a decision sent before the rejoin admitted the process: %v", r.m)
	}
	r.env.now = r.env.now.Add(r.p.D)
	fresh := r.decisionFrom(1, model.NewGroup(g.Seq+1, g.Members))
	r.m.OnMessage(fresh)
	if r.m.State() != StateFailureFree {
		t.Fatalf("a decision sent after the rejoin did not admit the process: %v", r.m)
	}
}
