package broadcast

import (
	"slices"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// tryDeliver hands every update whose delivery conditions hold to the
// application. The ordered passes loop to a fixpoint because one delivery
// can unblock others (ordering chains, FIFO), and they run only when
// something they depend on changed since the last fixpoint: a descriptor
// or an ack bit in the view, the body of an ordered update, the group,
// or a suppression mark running out. A body the view does not order yet
// changes none of that.
func (b *Broadcast) tryDeliver(now model.Time) {
	if b.deliverRef != nil {
		b.deliverRef(b, now)
		return
	}
	if b.deferApp {
		return
	}
	b.deliverFast(now)
	for q := range b.suppressUntil {
		b.senderSuppressed(q, now) // a mark running out unblocks its sender's updates
	}
	if !b.orderedDirty {
		return
	}
	for b.deliverOrderedPass(now) {
	}
	b.orderedDirty = false
}

// DeferDeliveries toggles join-time delivery deferral (see the deferApp
// field). member.Machine sets it when entering the join state with
// recovered coverage to advertise; ApplyState clears it.
func (b *Broadcast) DeferDeliveries(on bool) {
	if b.deferApp && !on {
		b.orderedDirty = true
	}
	b.deferApp = on
}

// deliverFast is the weak/unordered fast path: such updates are delivered
// on receipt, before any ordinal is assigned, in (proposer, sequence)
// order. Updates delivered this way are recorded in dpd until a decision
// orders them.
func (b *Broadcast) deliverFast(now model.Time) {
	blocked := b.fastQ[:0]
	for _, id := range b.fastQ {
		r := b.ids.rec(id)
		if r == nil || r.body == nil || r.delivered {
			continue
		}
		p := r.body
		d := b.find(id)
		if b.senderSuppressed(id.Proposer, now) || (d != nil && d.Undeliverable) {
			blocked = append(blocked, id)
			continue
		}
		ord := oal.None
		if d != nil {
			ord = d.Ordinal
		}
		b.deliver(p, ord, now)
		if d == nil {
			b.dpd = append(b.dpd, id)
			b.stats.DeliveredFast++
		}
	}
	b.fastQ = blocked
}

// deliverOrderedPass makes one pass over the view in ordinal order, from
// the delivery cursor, and reports whether anything was delivered. What
// blocks later descriptors is collected on the way: an undelivered
// total-ordered update blocks every later total-ordered one, and a
// proposer's undelivered ordered-class update blocks its later ones
// (deciders order a proposer's updates by ascending sequence, so a
// blocker always has the smaller ordinal).
func (b *Broadcast) deliverOrderedPass(now model.Time) bool {
	any := false
	totalBlocked := false
	b.fifoScratch = b.fifoScratch[:0]
	firstUndone := oal.None
	for i := b.view.Search(b.dcur); i < len(b.view.Entries); i++ {
		d := &b.view.Entries[i]
		if d.Kind != oal.UpdateDesc || d.Undeliverable {
			continue
		}
		r := b.ids.rec(d.ID)
		if r != nil && r.delivered {
			continue
		}
		if d.Ordinal <= b.snapshotCovered {
			// The join-time snapshot already reflects this update
			// (adopted from a member whose oal was less truncated than
			// the snapshot provider's).
			b.ids.markDelivered(d.ID)
			any = true
			continue
		}
		if r != nil && r.body != nil && !b.senderSuppressed(d.ID.Proposer, now) &&
			b.atomicityOK(d) && b.orderOK(d, totalBlocked) && b.fifoOK(d) {
			b.deliver(r.body, d.Ordinal, now)
			any = true
			continue
		}
		if firstUndone == oal.None {
			firstUndone = d.Ordinal
		}
		switch d.Sem.Order {
		case oal.TotalOrder:
			totalBlocked = true
			fallthrough
		case oal.TimeOrder:
			b.noteFIFOBlock(d.ID)
		}
	}
	if firstUndone == oal.None {
		firstUndone = b.view.Next
	}
	b.dcur = firstUndone
	return any
}

func (b *Broadcast) deliver(p *wire.Proposal, ord oal.Ordinal, now model.Time) {
	b.ids.markDelivered(p.ID)
	b.stats.Delivered++
	b.cfg.OnDeliver(Delivery{
		ID:      p.ID,
		Payload: slices.Clone(p.Payload),
		Ordinal: ord,
		Sem:     p.Sem,
		SendTS:  p.SendTS,
	})
	if _, armed := b.termination[p.ID]; armed {
		delete(b.termination, p.ID)
		b.cfg.OnOutcome(Outcome{ID: p.ID, Delivered: true, At: now})
	}
}

// atomicityOK evaluates the atomicity delivery condition for descriptor
// d against the current group.
func (b *Broadcast) atomicityOK(d *oal.Descriptor) bool {
	var k int
	switch d.Sem.Atomicity {
	case oal.WeakAtomicity:
		return true
	case oal.StrongAtomicity:
		k = ackMajority
	case oal.StrictAtomicity:
		k = ackAll
	default:
		return false
	}
	if b.group.Size() == 0 {
		return false
	}
	need := b.ackNeeds()[k]
	// The update itself and every update it may depend on (ordinal <=
	// hdo) must be sufficiently acknowledged. Ordinals below the view's
	// first retained entry were truncated as stable — fully acknowledged
	// by construction. An hdo beyond the highest known ordinal names a
	// dependency this process has not seen, so the update must wait.
	// The dependencies are covered by the ack watermark (see index.go):
	// no walk over [first, hdo], whose length a corrupt hdo once turned
	// into a multi-minute spin on the event goroutine.
	if d.Acks.CountMask(b.groupMask) < need {
		return false
	}
	if d.HDO > b.view.HighestOrdinal() {
		return false
	}
	return d.HDO < b.firstAckFail(k, need)
}

// orderOK evaluates the ordering delivery condition for descriptor d.
// totalBlocked says an earlier total-ordered update of this pass stays
// undelivered.
func (b *Broadcast) orderOK(d *oal.Descriptor, totalBlocked bool) bool {
	switch d.Sem.Order {
	case oal.Unordered:
		return true
	case oal.TotalOrder:
		// Every total-ordered update with a smaller ordinal must be
		// delivered or purged. Truncated entries were delivered long
		// ago (stability hysteresis).
		return !totalBlocked
	case oal.TimeOrder:
		// Releasable once a decision at least delta+epsilon newer than
		// the update's send timestamp exists: any timely proposal sent
		// earlier has been ordered by then. Then deliver in
		// (timestamp, proposer, seq) order among time-ordered updates;
		// the undelivered ones all sit at or above the delivery cursor.
		if b.lastDecTS < b.settleAt(d) {
			return false
		}
		for i := b.view.Search(b.dcur); i < len(b.view.Entries); i++ {
			e := &b.view.Entries[i]
			if e.Kind != oal.UpdateDesc || e.Sem.Order != oal.TimeOrder || e.Ordinal == d.Ordinal {
				continue
			}
			if timeOrderLess(e, d) && !e.Undeliverable && !b.ids.delivered(e.ID) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// noteFIFOBlock records that id, an ordered-class update, stays
// undelivered in this pass.
func (b *Broadcast) noteFIFOBlock(id oal.ProposalID) {
	for i := range b.fifoScratch {
		if f := &b.fifoScratch[i]; f.proposer == id.Proposer {
			f.seq = min(f.seq, id.Seq)
			return
		}
	}
	b.fifoScratch = append(b.fifoScratch, fifoBlock{proposer: id.Proposer, seq: id.Seq})
}

// fifoOK enforces the per-sender FIFO property across the ordered
// classes (§4.3: "updates proposed by the same process must be delivered
// in the order they are proposed"): every earlier-sequence total- or
// time-ordered update from the same proposer that is still in the view
// must be delivered or purged first. Within one class the order rules
// imply this; the check closes the cross-class gap (e.g. a total-order
// update followed by a time-order one).
func (b *Broadcast) fifoOK(d *oal.Descriptor) bool {
	for _, f := range b.fifoScratch {
		if f.proposer == d.ID.Proposer {
			return f.seq >= d.ID.Seq
		}
	}
	return true
}

// timeOrderLess orders time-ordered updates by (send timestamp, proposer,
// sequence).
func timeOrderLess(a, c *oal.Descriptor) bool {
	if a.SendTS != c.SendTS {
		return a.SendTS < c.SendTS
	}
	if a.ID.Proposer != c.ID.Proposer {
		return a.ID.Proposer < c.ID.Proposer
	}
	return a.ID.Seq < c.ID.Seq
}
