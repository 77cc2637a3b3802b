package broadcast

import (
	"slices"
	"sort"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// BuildDecision assembles the decision message this process sends while
// it holds the decider role: it stamps its own acknowledgements, assigns
// ordinals to pending proposals (contiguously per proposer, in send-time
// order), advances stability, truncates the stable prefix, and encodes
// the oal — as the descriptors that changed, when the receivers hold a
// baseline. It also returns the IDs of sequence-gap proposals the
// decider is missing and should nack.
//
// now must exceed the previous decision's timestamp; callers stamp
// decisions with a monotonic synchronized clock.
func (b *Broadcast) BuildDecision(now model.Time, group model.Group, alive []model.ProcessID) (*wire.Decision, []oal.ProposalID) {
	b.SetGroup(group)
	b.refreshOwnAcks()
	ts := now
	if ts <= b.lastDecTS {
		ts = b.lastDecTS + 1
	}
	if b.pristineLost {
		// The view was reconciled or extended outside a decision: nothing
		// retained describes what the receivers hold. This decision ships
		// full and becomes the only baseline.
		b.clearBaselines()
		b.forceFull = true
		for i := range b.meta {
			b.meta[i] = entryMeta{chg: ts}
		}
		b.ownAcked = b.ownAcked[:0]
		b.pristineLost = false
	}
	// This process's own acknowledgements go out with the decision: they
	// stop being local changes.
	for _, ord := range b.ownAcked {
		if i := b.view.Search(ord); i < len(b.view.Entries) && b.view.Entries[i].Ordinal == ord && b.meta[i].ownAck {
			b.meta[i].ownAck = false
			b.touch(i, ts)
		}
	}
	b.ownAcked = b.ownAcked[:0]
	appended := len(b.view.Entries)
	missing := b.assignOrdinals(now, b.OrderingRoom(ts))
	for i := appended; i < len(b.view.Entries); i++ {
		b.touch(i, ts)
	}
	b.advanceStability(now, ts)
	b.truncateStable(now)
	b.lastDecTS = ts
	b.noteDecided(ts)
	b.syncSettledTimeTS()
	dec := &wire.Decision{
		Header:  wire.Header{From: b.self, SendTS: ts},
		Group:   group.Clone(),
		Alive:   slices.Clone(alive),
		Lineage: b.lineage,
	}
	if b.encodeDelta(dec) {
		b.stats.DecisionsDelta++
	} else {
		dec.OAL = *b.view.Clone()
		b.forceFull = false
		b.stats.DecisionsFull++
	}
	b.pushBaseline(ts)
	b.orderedDirty = true
	b.tryDeliver(ts)
	return dec, missing
}

// Orderable reports whether a decision built now would assign at least
// one ordinal, slot budget permitting: some pending body continues its
// proposer's ordered sequence and its sender is not under an
// election-time mark. It is exact in that direction — true means
// BuildDecision orders that body when stamped at NextOrderingAt, which
// always leaves room — and that is what lets a decider act on it without
// waiting out its hold and without spinning. (A body that can only be
// ordered by abandoning a sequence gap is left to the held decision.)
func (b *Broadcast) Orderable(now model.Time) bool {
	for _, pr := range b.ids.procs {
		if len(pr.pend) == 0 {
			continue
		}
		if i := pr.index(pr.ordered + 1); i >= 0 && pr.recs[i].pending() && !b.senderSuppressed(pr.proposer, now) {
			return true
		}
	}
	return false
}

// AckAwaited reports whether a decision built now would publish an
// acknowledgement that a delivery still waits on: this process holds an
// own ack no decision has carried yet on a retained, unpurged Strong or
// Strict update whose published acknowledgements — all of them but this
// process's own — fall short of what its atomicity needs. Like
// Orderable it is exact: each decision it brings forward publishes at
// least one of those bits, and BuildDecision leaves none unpublished,
// so a decider acting on it cannot spin.
func (b *Broadcast) AckAwaited() bool {
	needs := b.ackNeeds()
	for _, ord := range b.ownAcked {
		i := b.view.Search(ord)
		if i == len(b.view.Entries) || b.view.Entries[i].Ordinal != ord || !b.meta[i].ownAck {
			continue
		}
		d := &b.view.Entries[i]
		if d.Kind != oal.UpdateDesc || d.Undeliverable {
			continue
		}
		var k int
		switch d.Sem.Atomicity {
		case oal.StrongAtomicity:
			k = ackMajority
		case oal.StrictAtomicity:
			k = ackAll
		default:
			continue
		}
		published := d.Acks
		published.Remove(b.self)
		if published.CountMask(b.groupMask) < needs[k] {
			return true
		}
	}
	return false
}

// TimeReleaseAt returns the earliest settle point (SendTS+δ+ε) among the
// retained, unpurged, undelivered time-ordered updates that no decision
// sent or adopted here has passed yet, and false when there is none. A
// decision stamped at or after it releases that update (orderOK). Like
// AckAwaited it is exact: BuildDecision or AdoptDecision at a timestamp
// at or after the point passes it, so a decider acting on it cannot
// spin, and an idle group holds none.
func (b *Broadcast) TimeReleaseAt() (model.Time, bool) {
	b.dropReleased()
	if len(b.releaseQ) == 0 {
		return 0, false
	}
	return b.releaseQ[0].at, true
}

// MaxOrdinalsPerDecision bounds the proposals one decision orders, and
// the proposals all decisions stamped in one ordering slot order together
// (OrderingRoom). What is left waits for the next slot edge
// (NextOrderingAt): the bound keeps a decision's size and the time every
// member's event loop spends adopting it (delivery callbacks included)
// independent of how deep the backlog is, and makes the group's ordering
// capacity a function of D — at most this many ordinals per ordering slot
// of D/32, 64 × 32 per D. Teams too large for a delta decision at this
// bound to fit one datagram order fewer (ordinalsPerDecision).
const MaxOrdinalsPerDecision = 64

// The ordering grid, on the synchronized clock. D is divided into
// orderingSlotsPerD slots, each split into cellsPerSlot cells. The slot
// is the unit of ordering capacity: the decisions stamped within one
// slot together assign at most ordinalsPerDecision of the team size.
// The cell paces the decisions that spend it: the next ordering decision
// is due at the first cell edge after the latest one, or at the next
// slot edge once the slot's budget is spent (NextOrderingAt). Below the
// ceiling a proposal therefore waits at most a cell to be ordered, and
// not at all when it arrives a cell or more after the latest ordering
// decision. At the ceiling the first decision of each slot takes the
// whole budget, so cadence and batch are one full decision per slot.
// Both grids stand still, so a late decision moves no later edge.
const (
	orderingSlotsPerD = 32
	cellsPerSlot      = 4
)

// slotLen is the length of an ordering slot.
func (b *Broadcast) slotLen() model.Time {
	return model.Time(max(b.params.D/orderingSlotsPerD, 1))
}

// orderingSlot returns the ordering slot a decision stamped at ts falls
// in, and its cell within that slot.
func (b *Broadcast) orderingSlot(ts model.Time) (slot, cell model.Time) {
	q := b.slotLen()
	return ts / q, ts % q * cellsPerSlot / q
}

// OrderingRoom returns how many ordinals a decision stamped at ts may
// assign: none in the cell of the latest ordering decision, and
// otherwise ordinalsPerDecision of the team size less what the decisions
// stamped earlier in the same slot assigned. It bounds every decision —
// held, ack-only and release decisions too — so the grid holds whatever
// sends a decision and however far the sender's clock lags the latest
// stamp.
func (b *Broadcast) OrderingRoom(ts model.Time) int {
	room := ordinalsPerDecision(b.params.N)
	slot, cell := b.orderingSlot(ts)
	switch lastSlot, lastCell := b.orderingSlot(b.lastOrdTS); {
	case slot != lastSlot:
		return room
	case cell == lastCell:
		return 0
	default:
		return max(room-b.slotUsed, 0)
	}
}

// NextOrderingAt returns when the next decision that assigns an ordinal
// is due: at the first cell edge after the latest one (LastOrderingTS),
// or — full — at the next slot edge when the decisions stamped in that
// slot have spent its budget. A decision stamped then always has room.
// Cell edges split each slot as evenly as whole microseconds allow, so
// the last cell of a slot ends at the slot edge.
func (b *Broadcast) NextOrderingAt() (at model.Time, full bool) {
	q := b.slotLen()
	last := b.lastOrdTS
	start := last - last%q
	next := (last-start)*cellsPerSlot/q + 1
	at = start + (next*q+cellsPerSlot-1)/cellsPerSlot
	if b.OrderingRoom(at) > 0 {
		return at, false
	}
	return start + q, true
}

// updateDescriptorSize is the encoded size of an update descriptor in a
// decision's oal.
const updateDescriptorSize = 72

// deltaDescriptorBudget is how many update descriptors one decision may
// carry: the coalescer's datagram bound less 1 KiB for the rest of the
// decision (header, group and alive lists of up to oal.MaxProcesses).
const deltaDescriptorBudget = (wire.MaxCoalescedSize - 1024) / updateDescriptorSize

// ordinalsPerDecision returns how many proposals one decision of an
// n-member team orders: MaxOrdinalsPerDecision, or fewer where a delta
// decision at that bound would not fit one datagram. Such a delta,
// against the oldest baseline of the widest ring, carries the
// descriptors ordered by the last maxDeltaWindow decisions plus the
// older ones whose acks or stability changed since — a descriptor
// collects them over the next n-1 decisions — so it holds
// (maxDeltaWindow + n - 1) times the bound (TestWorstCaseDeltaFitsOneDatagram).
// Teams of up to six order 64; 50 order 14.
func ordinalsPerDecision(n int) int {
	fit := deltaDescriptorBudget / (maxDeltaWindow + max(n, 1) - 1)
	return max(1, min(MaxOrdinalsPerDecision, fit))
}

// assignOrdinals orders the pending proposals whose per-proposer
// sequence is contiguous with what is already ordered, oldest first and
// at most room of them (OrderingRoom), and returns the IDs of gap
// proposals that block further ordering and must be retransmitted.
func (b *Broadcast) assignOrdinals(now model.Time, room int) []oal.ProposalID {
	// The candidates: of each proposer, the bodies this decision can reach
	// by contiguity and its smallest pending one (the gap rules). A
	// backlog deeper than that is not sorted again by every decision.
	var pending []orderCandidate
	for _, pr := range b.ids.procs {
		if len(pr.pend) == 0 || b.senderSuppressed(pr.proposer, now) {
			continue
		}
		// pend ascends: its head is the smallest pending sequence, and the
		// ones ordering can reach by contiguity follow the ordered cursor.
		minPending := pr.pend[0]
		add := func(seq uint64) {
			p := b.ids.body(oal.ProposalID{Proposer: pr.proposer, Seq: seq})
			pending = append(pending, orderCandidate{p: p, minPending: minPending})
		}
		from, _ := slices.BinarySearch(pr.pend, pr.ordered+1)
		if from > 0 {
			add(minPending)
		}
		for _, seq := range pr.pend[from:] {
			if seq-pr.ordered > uint64(room) && seq != minPending {
				break
			}
			add(seq)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	sort.Slice(pending, func(i, j int) bool {
		a, c := pending[i].p, pending[j].p
		if a.SendTS != c.SendTS {
			return a.SendTS < c.SendTS
		}
		if a.ID.Proposer != c.ID.Proposer {
			return a.ID.Proposer < c.ID.Proposer
		}
		return a.ID.Seq < c.ID.Seq
	})

	// Repeated passes let a chain seq, seq+1, ... from one proposer be
	// ordered within a single decision. Ordering is contiguous per
	// proposer; a persistent gap (missing body for longer than a cycle,
	// e.g. after the proposer crashed and restarted with a clock-seeded
	// sequence) is declared abandoned and ordering jumps to the smallest
	// pending sequence — the skipped updates become stale everywhere.
	ordered := func(p *wire.Proposal) {
		room--
		var acks oal.AckSet
		acks.Add(b.self)
		b.appendUpdate(p.ID, p.Sem, p.SendTS, p.HDO, acks)
		b.ids.raiseOrdered(p.ID.Proposer, p.ID.Seq)
		delete(b.gapSince, p.ID.Proposer)
		if p.Sem.Order == oal.TimeOrder &&
			(p.SendTS < b.maxSettledTimeTS || now.Sub(p.SendTS) > b.params.CycleLen()) {
			// Time-order straggler: either a later-timestamped
			// time-ordered update already became deliverable, or the
			// body waited longer than a full cycle to be ordered (e.g.
			// it lingered through a crash and rejoin) — delivering it
			// now could invert time order at members whose competing
			// entries were already truncated. Purged uniformly, in the
			// oal. The cycle horizon backstops the watermark, which a
			// freshly rejoined decider may not have re-learned yet.
			d := &b.view.Entries[len(b.view.Entries)-1]
			d.Undeliverable = true
			d.StableTS = now
			b.stats.Purged++
		}
	}
	for changed := true; changed && room > 0; {
		changed = false
		for _, c := range pending {
			if room == 0 {
				break
			}
			p := c.p
			if b.ids.ordinal(p.ID) != oal.None {
				continue
			}
			prop := p.ID.Proposer
			base := b.ids.orderedSeq(prop)
			if p.ID.Seq <= base {
				continue // stale
			}
			if p.ID.Seq == base+1 {
				ordered(p)
				changed = true
				continue
			}
			if p.ID.Seq != c.minPending {
				continue // a smaller pending body must go first
			}
			since, started := b.gapSince[prop]
			if !started {
				b.gapSince[prop] = now
				continue
			}
			if now.Sub(since) > b.params.CycleLen() {
				ordered(p) // gap abandoned: jump
				changed = true
			}
		}
	}
	b.compactDPD()

	// Gap detection: a pending proposal whose predecessors are missing
	// reveals a loss; request the missing bodies. Gaps wider than a few
	// messages are not losses but sequence jumps (a proposer restarting
	// with a clock-seeded sequence): nothing to retransmit — the gap
	// timeout above will skip them.
	const maxGapNack = 64
	var missing []oal.ProposalID
	for _, c := range pending {
		p := c.p
		if b.ids.ordinal(p.ID) != oal.None {
			continue
		}
		base := b.ids.orderedSeq(p.ID.Proposer)
		if p.ID.Seq-base > maxGapNack {
			continue
		}
		for s := base + 1; s < p.ID.Seq; s++ {
			id := oal.ProposalID{Proposer: p.ID.Proposer, Seq: s}
			if b.ids.body(id) != nil {
				continue
			}
			if at, ok := b.nackAt[id]; ok && now.Sub(at) < b.params.D {
				continue
			}
			b.nackAt[id] = now
			missing = append(missing, id)
		}
	}
	return missing
}

// orderCandidate is a pending body a decision may order, with its
// proposer's smallest pending sequence when the decision started.
type orderCandidate struct {
	p          *wire.Proposal
	minPending uint64
}

// appendUpdate gives the next ordinal to an update and indexes its
// descriptor. Only this process's own decisions and reconciliations
// append; what other deciders ordered arrives by adoption.
func (b *Broadcast) appendUpdate(id oal.ProposalID, sem oal.Semantics, sendTS model.Time, hdo oal.Ordinal, acks oal.AckSet) {
	b.view.AppendUpdate(id, sem, sendTS, hdo, acks)
	b.meta = append(b.meta, entryMeta{})
	b.noteDescriptor(len(b.view.Entries) - 1)
}

// advanceStability stamps StableTS on descriptors that have become
// stable: updates acknowledged by every group member, purged updates,
// and membership descriptors. ts is the decision the stamps go out in.
func (b *Broadcast) advanceStability(now, ts model.Time) {
	first := oal.None
	for i := b.view.Search(b.stableCur); i < len(b.view.Entries); i++ {
		d := &b.view.Entries[i]
		if d.StableTS != 0 {
			continue
		}
		if d.Kind == oal.MembershipDesc || d.Undeliverable ||
			(d.Acks.CountMask(b.groupMask) == b.group.Size() && b.group.Size() > 0) {
			d.StableTS = now
			b.touch(i, ts)
		} else if first == oal.None {
			first = d.Ordinal
		}
	}
	if first == oal.None {
		first = b.view.Next
	}
	b.stableCur = first
}

// truncateStable drops the head descriptors that have been stable for
// more than one cycle: by then every member has held the decider role,
// seen the stability, and delivered (or purged) the update.
func (b *Broadcast) truncateStable(now model.Time) {
	horizon := b.params.CycleLen()
	b.forgetHead(b.view.TruncateStable(func(d *oal.Descriptor) bool {
		if d.StableTS == 0 || now.Sub(d.StableTS) <= horizon {
			return false
		}
		// Safety net: never truncate an update this process has not
		// delivered itself.
		return d.Kind != oal.UpdateDesc || d.Undeliverable || b.ids.delivered(d.ID)
	}))
}

// AnnounceGroup appends a membership descriptor for g to the oal and
// installs g as the current group. Deciders call it when admitting a
// joiner or excluding failed members; the descriptor is disseminated by
// the next BuildDecision.
func (b *Broadcast) AnnounceGroup(now model.Time, g model.Group) {
	b.view.AppendMembership(g)
	b.meta = append(b.meta, entryMeta{})
	b.view.Entries[len(b.view.Entries)-1].StableTS = now
	b.SetGroup(g)
	// Membership changes ride in a full decision: joiners have no
	// baseline yet, and the formation-decision shape (a single
	// membership descriptor) is recognised on the wire.
	b.forceFull = true
	b.pristineLost = true
}

// Report is one peer's log view received during an election, from its
// no-decision or reconfiguration messages.
type Report struct {
	From model.ProcessID
	View *oal.List
	DPD  []oal.ProposalID
}

// Reconcile is the §4.3 view-change procedure run by a freshly elected
// decider before it announces the new group:
//
//  1. adopt the longest log view among its own and the reports, and
//     merge everyone's acknowledgement bits into it;
//  2. append (with fresh ordinals) every update a member delivered that
//     has no ordinal yet (the dpd mechanism), so atomicity holds;
//  3. classify and mark undeliverable proposals — lost, orphan-order,
//     orphan-atomicity, unknown-dependency — to a fixpoint;
//  4. append the membership descriptor for the new group.
//
// departed lists the processes removed from the previous group.
func (b *Broadcast) Reconcile(now model.Time, newGroup model.Group, departed []model.ProcessID, reports []Report) {
	b.refreshOwnAcks()

	// 1. Longest log wins; the election guarantees every other view is a
	// prefix of it.
	base := b.view
	for _, r := range reports {
		if r.View != nil && r.View.HighestOrdinal() > base.HighestOrdinal() {
			base = r.View
		}
	}
	if base != b.view {
		b.replaceView(base.Clone(), b.lastDecTS, true)
		b.syncOrderedSeq(0)
		b.dropStalePending()
		b.syncSettledTimeTS()
	}
	// What follows rewrites the view outside any decision; the next one
	// ships it whole.
	b.pristineLost = true
	for _, r := range reports {
		if r.View != nil && r.View != base {
			b.view.MergeAcks(r.View)
		}
	}

	// 2. Order delivered-but-unordered updates (dpd): they were already
	// delivered by at least one member, so every member must deliver
	// them. Such updates are weak/unordered by construction.
	b.compactDPD()
	type dpdEntry struct {
		id   oal.ProposalID
		acks oal.AckSet
	}
	dpdSeen := make(map[oal.ProposalID]*dpdEntry)
	var dpdOrder []oal.ProposalID
	note := func(id oal.ProposalID, from model.ProcessID) {
		e, ok := dpdSeen[id]
		if !ok {
			e = &dpdEntry{id: id}
			dpdSeen[id] = e
			dpdOrder = append(dpdOrder, id)
		}
		e.acks.Add(from)
	}
	for _, id := range b.dpd {
		note(id, b.self)
	}
	for _, r := range reports {
		for _, id := range r.DPD {
			note(id, r.From)
		}
	}
	for _, id := range dpdOrder {
		if b.ids.ordinal(id) != oal.None {
			continue
		}
		e := dpdSeen[id]
		var ts model.Time
		if body := b.ids.body(id); body != nil {
			ts = body.SendTS
			e.acks.Add(b.self)
		}
		sem := oal.Semantics{Order: oal.Unordered, Atomicity: oal.WeakAtomicity}
		b.appendUpdate(id, sem, ts, oal.None, e.acks)
		b.ids.raiseOrdered(id.Proposer, id.Seq)
	}

	// 3. Undeliverable classification to a fixpoint.
	b.markUndeliverable(now, newGroup, departed)

	// Drop unordered pending bodies from departed proposers: they were
	// never delivered anywhere (delivered ones are covered by dpd), and
	// with the proposer gone their sequence gaps can never be repaired.
	b.DropPendingFrom(departed)

	// 4. Membership descriptor for the new group.
	b.AnnounceGroup(now, newGroup)
	b.reindex()
	b.tryDeliver(now)
}

// markUndeliverable applies the four §4.3 categories until nothing
// changes, then purges marked bodies locally. The two orphan categories
// follow purges made by this reconciliation only. An update purged
// earlier was skipped by every member's FIFO and dependency checks from
// the moment its mark went out (deliverOrderedPass, atomicityOK), so
// members may already have delivered its successors and dependants;
// orphaning those now would purge what current members delivered.
func (b *Broadcast) markUndeliverable(now model.Time, newGroup model.Group, departed []model.ProcessID) {
	dep := model.NewProcessSet(departed...)
	known := b.view.HighestOrdinal()
	var purged []*oal.Descriptor // marked by this call
	mark := func(d *oal.Descriptor) {
		d.Undeliverable = true
		d.StableTS = now
		purged = append(purged, d)
	}
	for changed := true; changed; {
		changed = false
		for i := range b.view.Entries {
			d := &b.view.Entries[i]
			if d.Kind != oal.UpdateDesc || d.Undeliverable || b.ids.delivered(d.ID) {
				continue
			}
			switch {
			case dep.Has(d.ID.Proposer) && d.Acks.CountIn(newGroup) == 0:
				// Lost proposal: ordered, but no surviving member has
				// the body.
				mark(d)
				changed = true
			case (d.Sem.Order == oal.TotalOrder || d.Sem.Order == oal.TimeOrder) &&
				slices.ContainsFunc(purged, func(e *oal.Descriptor) bool {
					return e.Ordinal < d.Ordinal && e.ID.Proposer == d.ID.Proposer
				}):
				// Orphan-order: an earlier update by the same sender was
				// purged, so FIFO forbids delivering this one.
				mark(d)
				changed = true
			case (d.Sem.Atomicity == oal.StrongAtomicity || d.Sem.Atomicity == oal.StrictAtomicity) &&
				slices.ContainsFunc(purged, func(e *oal.Descriptor) bool { return e.Ordinal <= d.HDO }):
				// Orphan-atomicity: a dependency (ordinal <= hdo) was
				// purged.
				mark(d)
				changed = true
			case (d.Sem.Atomicity == oal.StrongAtomicity || d.Sem.Atomicity == oal.StrictAtomicity) &&
				d.HDO > known:
				// Unknown dependency: the update depends on orderings
				// no surviving member ever saw.
				mark(d)
				changed = true
			}
		}
	}
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && d.Undeliverable {
			b.ids.dropBody(d.ID)
		}
	}
}

// BuildState assembles the join-time state transfer for a newly admitted
// member: application snapshot, which retained updates that snapshot
// already covers, per-proposer ordering cursors, and the pending bodies
// the joiner may lack.
//
// joinerCovered and joinerLineage are what the joiner advertised in its
// join message. When the joiner's coverage belongs to this lineage and
// this process's durable log reaches back that far, the transfer is a
// delta: no application snapshot, just a replay of the deliveries the
// joiner missed. A zero joinerCovered (or a lineage mismatch, or no
// durable log) always yields a full transfer.
func (b *Broadcast) BuildState(now model.Time, joinerCovered oal.Ordinal, joinerLineage model.GroupSeq) *wire.State {
	covered := b.view.HighestOrdinal()
	if len(b.view.Entries) > 0 {
		covered = b.view.Entries[0].Ordinal - 1
	}
	st := &wire.State{
		Header:         wire.Header{From: b.self, SendTS: now},
		GroupSeq:       b.group.Seq,
		CoveredOrdinal: covered,
		SettledTimeTS:  b.maxSettledTimeTS,
	}
	delta := false
	if b.cfg.ReplaySince != nil && b.lineage != 0 &&
		joinerLineage == b.lineage && joinerCovered > 0 {
		if replay, ok := b.cfg.ReplaySince(joinerCovered); ok {
			st.NoAppState = true
			st.Replay = replay
			// The replay brings the joiner's application state up to this
			// process's full delivery state, so it covers our contiguous
			// coverage — not just the truncation point above.
			st.CoveredOrdinal = b.CoveredOrdinal()
			delta = true
			b.stats.StateDeltas++
		}
	}
	if !delta {
		st.AppState = b.cfg.Snapshot()
		b.stats.StateFulls++
	}
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && b.ids.delivered(d.ID) {
			st.Delivered = append(st.Delivered, d.ID)
		}
	}
	for _, id := range b.DPD() {
		st.Delivered = append(st.Delivered, id)
	}
	st.FIFONext = b.ids.fifo()
	for _, r := range b.ids.all() { // by proposer, then sequence
		if p := r.body; p != nil {
			cp := *p
			cp.Payload = slices.Clone(p.Payload)
			st.Pending = append(st.Pending, cp)
		}
	}
	return st
}

// ApplyState installs a transferred state at a joining member: the
// application snapshot (or, for a delta transfer, the replayed
// deliveries), the delivered set (so covered updates are not
// re-delivered), ordering cursors, and pending bodies.
func (b *Broadcast) ApplyState(now model.Time, st *wire.State) {
	if st.NoAppState {
		// Delta transfer: apply the missed deliveries on top of our
		// recovered application state, in the sender's delivery order.
		// The duplicate checks run against our coverage *before* this
		// transfer raises it, so nothing replayed is suppressed by its
		// own transfer.
		for i := range st.Replay {
			e := &st.Replay[i]
			if b.ids.delivered(e.ID) {
				continue
			}
			if e.Ordinal != oal.None && e.Ordinal <= b.snapshotCovered {
				b.ids.markDelivered(e.ID)
				continue
			}
			b.ids.markDelivered(e.ID)
			b.stats.Delivered++
			b.stats.ReplayApplied++
			b.cfg.OnDeliver(Delivery{
				ID:      e.ID,
				Payload: slices.Clone(e.Payload),
				Ordinal: e.Ordinal,
				Sem:     e.Sem,
				SendTS:  e.SendTS,
			})
		}
	}
	b.orderedDirty = true // coverage and the delivered set move below
	if st.CoveredOrdinal > b.snapshotCovered {
		b.snapshotCovered = st.CoveredOrdinal
	}
	if st.SettledTimeTS > b.maxSettledTimeTS {
		b.maxSettledTimeTS = st.SettledTimeTS
	}
	for _, id := range st.Delivered {
		b.ids.markDelivered(id)
	}
	for _, f := range st.FIFONext {
		b.ids.raiseOrdered(f.Proposer, f.Seq)
		if f.Proposer == b.self && f.Seq > b.nextSeq {
			b.nextSeq = f.Seq
		}
	}
	b.dropOrderedDPD()
	if !st.NoAppState {
		// Install last, after the coverage and delivered-set bookkeeping:
		// a durable node snapshots from inside its install hook, and the
		// snapshot metadata must describe the installed state.
		b.cfg.Install(st.AppState)
	}
	// The transfer this state represents has landed: resume application
	// hand-off and flush anything adopted while deliveries were deferred.
	b.deferApp = false
	for i := range st.Pending {
		b.OnProposal(now, &st.Pending[i])
	}
	b.tryDeliver(now)
}
