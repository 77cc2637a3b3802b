package broadcast

import (
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Delta-encoded decisions (wire v5). Steady state, consecutive decisions
// share almost all of their oal: most descriptors are unchanged, a few
// gain ack bits, a few are appended, a stable prefix is truncated. The
// decider therefore ships only the entries that changed, against a
// baseline the receivers already hold:
//
//   - every process remembers the *pristine* oals — the exact wire
//     content — of the freshest few decisions it built or adopted. The
//     decision at any timestamp is one broadcast message, so every
//     member's pristine copy of it is identical.
//   - a delta decision carries BaseTS (the ring's oldest timestamp at
//     the sender — a few decisions back, not the latest), TruncBelow
//     (the first ordinal the full oal retains; truncation is conveyed
//     by the bound, not by shipping the survivors), the entries that
//     changed since BaseTS, and the full list's Next (so freshness
//     guards work unreconstructed).
//   - descriptors evolve monotonically (ack bits, stability stamps and
//     undeliverable marks are only ever added), so "changed since
//     BaseTS" covers every change since *any* later decision too. A
//     receiver therefore overlays the delta onto its own newest
//     pristine baseline whenever that baseline is at least as new as
//     BaseTS — it may have missed up to ring-size-1 consecutive
//     decisions and still apply the next one.
//   - a receiver that fell further behind requests a baseline with an
//     OALReq; the server answers with its newest pristine oal in an
//     OALFull and, as a backstop, ships its next decision full.
//
// No pristine list is stored. The newest one is the working view without
// the ack bits this process stamped locally since (entryMeta.ownAck), so
// a delta is applied to the view in place; and an older one is needed
// only to tell what changed since, which each descriptor's change stamp
// (entryMeta.chg) answers. A baseline is therefore a timestamp plus the
// lowest ordinal changed after it, and building or adopting a decision
// costs work over the changed entries, not over the view.
//
// Elections and membership changes force the next decision full, and so
// does a peer's OALReq. Nothing else does: a member that lost its
// baseline asks for one (a round trip), instead of every member shipping
// and adopting the whole retained oal on a cadence — at a high ordering
// rate that list holds thousands of descriptors, and a periodic full copy
// of it would cost more than all the deltas between.

// The baseline ring remembers the freshest few decisions, and its size
// bounds how far back a delta may reach: a receiver that missed up to
// size-1 consecutive decisions still applies the next delta. The size
// adapts to the observed decision-loss rate: every baseline repair — an
// OALReq from a peer that lost its baseline, or a delta received here
// with no qualifying baseline — widens the ring by one, so a lossier
// link tolerates a longer gap before paying a full-oal round trip;
// deltaShrinkAfter consecutive repairs-free baselines shrink it back
// toward the minimum, keeping deltas against the oldest entry small.
const (
	minDeltaWindow   = 3
	maxDeltaWindow   = 8
	deltaShrinkAfter = 256
)

// baseline is one remembered decision: when it was sent, and the lowest
// ordinal whose shared content a later decision changed (beyond every
// ordinal while nothing has).
type baseline struct {
	ts  model.Time
	low oal.Ordinal
}

const noOrdinal = ^oal.Ordinal(0)

// deltaEligible reports whether the next outgoing decision/no-decision
// may be delta-encoded against the retained baselines.
func (b *Broadcast) deltaEligible() bool {
	return !b.deltaOff && !b.forceFull && !b.pristineLost && len(b.baseRing) > 0
}

// ForceFullOAL makes this process's next decision carry the full oal.
// The member layer calls it when an OALReq arrives: some peer lost the
// baseline, and one full decision re-seeds everyone at once. Each
// request is also a loss-rate observation — a peer fell more than
// ring-size decisions behind — so the ring widens.
func (b *Broadcast) ForceFullOAL() {
	b.forceFull = true
	b.noteBaselineRepair()
}

// DeltaWindow returns the current adaptive baseline-ring capacity.
func (b *Broadcast) DeltaWindow() int { return b.deltaWin }

// noteBaselineRepair records one baseline miss (ours or a peer's) and
// widens the ring, buying lossier links a deeper reach before the next
// full-oal round trip.
func (b *Broadcast) noteBaselineRepair() {
	b.deltaClean = 0
	if b.deltaWin < maxDeltaWindow {
		b.deltaWin++
	}
}

// pushBaseline remembers the decision at ts — whose oal the view now
// holds — as the newest baseline. Every retained baseline without an
// intervening repair counts toward shrinking an over-widened ring back
// down.
func (b *Broadcast) pushBaseline(ts model.Time) {
	if b.deltaClean++; b.deltaClean >= deltaShrinkAfter {
		b.deltaClean = 0
		if b.deltaWin > minDeltaWindow {
			b.deltaWin--
		}
	}
	b.baseRing = append(b.baseRing, baseline{ts: ts, low: noOrdinal})
	if len(b.baseRing) > b.deltaWin {
		n := copy(b.baseRing, b.baseRing[len(b.baseRing)-b.deltaWin:])
		b.baseRing = b.baseRing[:n]
	}
}

// lowerBaselines records a change at ordinal ord in a decision newer
// than every retained baseline. Older baselines have seen every change
// newer ones have, so their lows are no higher and the walk stops early.
func (b *Broadcast) lowerBaselines(ord oal.Ordinal) {
	for k := len(b.baseRing) - 1; k >= 0 && b.baseRing[k].low > ord; k-- {
		b.baseRing[k].low = ord
	}
}

// clearBaselines drops every retained baseline; the next decision ships
// full.
func (b *Broadcast) clearBaselines() { b.baseRing = nil }

// newestBaseline returns the freshest retained baseline whose oal this
// process can still produce, or nil.
func (b *Broadcast) newestBaseline() *baseline {
	if len(b.baseRing) == 0 || b.pristineLost {
		return nil
	}
	return &b.baseRing[len(b.baseRing)-1]
}

// pristineList materialises the newest baseline's oal: the view without
// the ack bits stamped locally since.
func (b *Broadcast) pristineList() *oal.List {
	out := b.view.Clone()
	for i := range out.Entries {
		if b.meta[i].ownAck {
			out.Entries[i].Acks.Remove(b.self)
		}
	}
	return out
}

// changedSince returns deep copies of the view's descriptors that differ
// from the oal of the decision sent at base.ts. local adds the ones this
// process changed on its own since the newest decision.
func (b *Broadcast) changedSince(base *baseline, local bool) []oal.Descriptor {
	from := base.low
	if local {
		from = oal.None
	}
	var delta []oal.Descriptor
	for i := b.view.Search(from); i < len(b.view.Entries); i++ {
		if b.meta[i].chg > base.ts || (local && b.meta[i].ownAck) {
			delta = append(delta, b.view.Entries[i].Clone())
		}
	}
	return delta
}

// encodeDelta fills dec's oal in delta form against the oldest retained
// baseline when eligible and profitable. It returns whether it did; the
// caller ships the full oal otherwise.
func (b *Broadcast) encodeDelta(dec *wire.Decision) bool {
	if !b.deltaEligible() {
		return false
	}
	base := &b.baseRing[0] // oldest: tolerates receivers a few decisions behind
	delta := b.changedSince(base, false)
	if len(delta) >= len(b.view.Entries) {
		// No savings: a full oal is no larger and never needs a baseline
		// round trip.
		return false
	}
	dec.BaseTS = base.ts
	dec.TruncBelow = oal.TruncationPoint(b.view)
	dec.OAL = oal.List{Entries: delta, Next: b.view.Next}
	return true
}

// DecisionResolvable reports whether AdoptDecision can use dec as it
// stands: it carries a full oal, or it is stale and will be dropped
// regardless, or its delta is keyed on a baseline this process holds
// (same lineage, and at least as new as the delta's BaseTS — monotone
// descriptor evolution makes any such baseline valid). On false the
// caller cannot use the decision and should request a baseline via
// OALReq.
func (b *Broadcast) DecisionResolvable(dec *wire.Decision) bool {
	if dec.BaseTS == 0 {
		return true
	}
	if dec.SendTS <= b.lastDecTS {
		return true // stale either way; don't demand a baseline for it
	}
	if dec.Lineage != b.lineage {
		b.stats.DeltaMisses++
		return false
	}
	if base := b.newestBaseline(); base == nil || dec.BaseTS > base.ts {
		b.stats.DeltaMisses++
		b.noteBaselineRepair()
		return false
	}
	return true
}

// deltaAppliesInPlace reports whether the delta dec carries lines up
// with the view entry for entry, as one built by a correct decider on
// the same log does: strictly ascending ordinals, none below the
// truncation bound, each either rewriting a retained descriptor of the
// same identity or extending the view without a hole.
func (b *Broadcast) deltaAppliesInPlace(dec *wire.Decision) bool {
	next := b.view.Next
	if len(b.view.Entries) == 0 || dec.TruncBelow > next {
		// Nothing held survives the truncation: the new tail may start
		// anywhere above it.
		next = max(next, dec.TruncBelow)
		if len(dec.OAL.Entries) > 0 {
			next = max(next, dec.OAL.Entries[0].Ordinal)
		}
	}
	prev := oal.None
	for i := range dec.OAL.Entries {
		e := &dec.OAL.Entries[i]
		if e.Ordinal <= prev || e.Ordinal < dec.TruncBelow {
			return false
		}
		prev = e.Ordinal
		switch {
		case e.Ordinal == next:
			next++
		case e.Ordinal > next:
			return false
		default:
			cur := b.view.FindOrdinal(e.Ordinal)
			if cur == nil || cur.Kind != e.Kind || cur.ID != e.ID {
				return false
			}
		}
	}
	return next <= dec.OAL.Next
}

// applyDelta adopts the delta decision dec by rewriting the view in
// place (deltaAppliesInPlace holds): the truncated head is handed off
// and dropped, changed descriptors are overwritten, new ones appended.
// It reports whether any proposer's ordered sequence advanced.
func (b *Broadcast) applyDelta(now model.Time, dec *wire.Decision) (advanced bool) {
	for i := 0; i < len(b.view.Entries) && b.view.Entries[i].Ordinal < dec.TruncBelow; i++ {
		b.handOffTruncated(now, &b.view.Entries[i])
	}
	b.forgetHead(b.view.TruncateStable(func(d *oal.Descriptor) bool { return d.Ordinal < dec.TruncBelow }))
	b.lastDecTS = dec.SendTS
	appended := len(b.view.Entries)
	for i := range dec.OAL.Entries {
		e := dec.OAL.Entries[i].Clone()
		pos := b.view.Search(e.Ordinal)
		if pos == len(b.view.Entries) {
			b.view.Entries = append(b.view.Entries, e)
			b.meta = append(b.meta, entryMeta{})
		} else {
			if b.meta[pos].ownAck {
				b.view.Entries[pos].Acks.Remove(b.self)
				b.meta[pos].ownAck = false
			}
			if b.view.Entries[pos].Equal(&e) {
				// Changed since the sender's baseline, not since ours.
				b.noteDescriptor(pos)
				continue
			}
			b.view.Entries[pos] = e
		}
		b.touch(pos, dec.SendTS)
		b.noteDescriptor(pos)
	}
	b.view.Next = dec.OAL.Next
	return b.syncOrderedSeq(appended)
}

// ResolveNoDecisionDelta reconstructs a delta-encoded no-decision view
// in place, under the same baseline contract as decisions. A false
// return leaves nd untouched (BaseTS != 0 keeps marking it partial);
// the caller may retry later — ResolveNoDecisionDelta is idempotent —
// and must not treat nd.View as a full log until it succeeds.
func (b *Broadcast) ResolveNoDecisionDelta(nd *wire.NoDecision) bool {
	if nd.BaseTS == 0 {
		return true
	}
	full := oal.NewList()
	if base := b.newestBaseline(); base == nil || nd.BaseTS > base.ts ||
		!oal.ReconstructInto(full, b.pristineList(), nd.TruncBelow, &nd.View) {
		b.stats.DeltaMisses++
		b.noteBaselineRepair()
		return false
	}
	nd.View = *full
	nd.BaseTS, nd.TruncBelow = 0, 0
	return true
}

// NoDecisionView returns this process's oal view for an outgoing
// no-decision message: delta-encoded against the oldest retained
// baseline when possible (no-decisions broadcast every slot during an
// election, so the savings compound), full otherwise. The accompanying
// BaseTS and TruncBelow go out in the same message.
func (b *Broadcast) NoDecisionView() (view oal.List, baseTS model.Time, truncBelow oal.Ordinal) {
	b.refreshOwnAcks()
	if b.deltaEligible() {
		base := &b.baseRing[0]
		if delta := b.changedSince(base, true); len(delta) < len(b.view.Entries) {
			return oal.List{Entries: delta, Next: b.view.Next}, base.ts, oal.TruncationPoint(b.view)
		}
	}
	return *b.view.Clone(), 0, 0
}

// ServeFullOAL builds the OALFull reply to an OALReq: the newest
// pristine baseline, which is what deltas overlay onto cluster-wide.
// Serving the (locally ack-refreshed) current view instead would hand
// the requester a baseline nobody else diffs from. Returns nil when
// this process holds no baseline to serve.
func (b *Broadcast) ServeFullOAL(now model.Time) *wire.OALFull {
	base := b.newestBaseline()
	if base == nil {
		return nil
	}
	b.stats.OALFullServed++
	return &wire.OALFull{
		Header:  wire.Header{From: b.self, SendTS: now},
		Group:   b.group.Clone(),
		Lineage: b.lineage,
		DecTS:   base.ts,
		OAL:     *b.pristineList(),
	}
}

// InstallFullOAL applies a served baseline. A baseline newer than
// anything seen here doubles as a full decision (the content is exactly
// the decision sent at DecTS) and goes through the normal adoption
// path, returning the bodies to nack. Stale baselines, and one matching
// the freshest adopted decision — whose oal the view already holds —
// are ignored.
func (b *Broadcast) InstallFullOAL(now model.Time, of *wire.OALFull) (adopted bool, missing []oal.ProposalID) {
	if of.Lineage == b.lineage && of.DecTS == b.lastDecTS {
		return false, nil
	}
	dec := wire.Decision{
		Header:  wire.Header{From: of.From, SendTS: of.DecTS},
		Group:   of.Group,
		OAL:     of.OAL,
		Lineage: of.Lineage,
	}
	return b.AdoptDecision(now, &dec)
}
