package broadcast

import (
	"cmp"
	"slices"

	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// Bookkeeping that keeps the cost of ordering proportional to new work.
//
// The view is a window of consecutive ordinals: a stable prefix is
// truncated at the head, new descriptors are appended at the tail, and
// in between only ack bits, stability stamps and purge marks are added.
// Everything below indexes into that window instead of rescanning it:
//
//   - the ID table's ordinals (id -> ordinal, ids.go) and
//     oal.List.Search (ordinal -> position) replace the linear
//     List.Find;
//   - the table's pending lists hold the bodies the view does not order
//     yet, fastQ the undelivered unordered/weak bodies, bodiless the
//     ordered updates whose body is missing — the three things the old
//     code found by walking the whole proposal buffer or the whole view;
//   - dcur is the delivery cursor: every descriptor below it is delivered,
//     purged or a membership change, so a delivery pass starts there;
//   - ackFail[k] is the first ordinal whose update lacks a majority
//     (k = 0) or all (k = 1) of the group's acknowledgements: "every
//     update up to hdo is sufficiently acknowledged" is hdo < ackFail[k];
//   - stableCur is the first ordinal with no stability stamp;
//   - releaseQ holds, by settle point, the time-ordered updates no
//     decision has released yet (see TimeReleaseAt).
//
// fastQ, bodiless, ackDebt, ownAcked and releaseQ are candidate lists:
// every event that can make an entry qualify appends it, and the reader
// re-checks the condition, so entries that stopped qualifying (delivered
// through a state transfer, purged, truncated) cost one look and drop
// out. The cursors are lower bounds that only move forward while the view
// evolves monotonically; an adopted entry that steps back below one pulls
// it back, and replacing the view wholesale resets them.

// entryMeta is what the working view remembers about the descriptor at
// the same position of view.Entries, beyond what goes over the wire.
type entryMeta struct {
	// chg is the send timestamp of the newest decision that changed the
	// descriptor's shared content (the decision that introduced it
	// included). A delta against the baseline at ts holds exactly the
	// descriptors with chg > ts.
	chg model.Time
	// ownAck says this process's ack bit was stamped locally and no
	// decision has carried it yet: the shared content is the descriptor
	// without that bit.
	ownAck bool
}

// settleMark is a releaseQ entry: the settle point of the time-ordered
// update at ordinal ord.
type settleMark struct {
	at  model.Time
	ord oal.Ordinal
}

// fifoBlock is one proposer's smallest undelivered ordered-class sequence
// seen so far in a delivery pass.
type fifoBlock struct {
	proposer model.ProcessID
	seq      uint64
}

const (
	ackMajority = 0
	ackAll      = 1
)

// posOf returns the position in view.Entries of the update descriptor
// for id, or -1 when the view does not order it.
func (b *Broadcast) posOf(id oal.ProposalID) int {
	ord := b.ids.ordinal(id)
	if ord == oal.None {
		return -1
	}
	if i := b.view.Search(ord); i < len(b.view.Entries) && b.view.Entries[i].Ordinal == ord {
		return i
	}
	return -1
}

// find is List.Find through the index.
func (b *Broadcast) find(id oal.ProposalID) *oal.Descriptor {
	if i := b.posOf(id); i >= 0 {
		return &b.view.Entries[i]
	}
	return nil
}

// queueFast adds id to the fast-path candidates, kept in (proposer,
// sequence) order — the order the fast path delivers in.
func (b *Broadcast) queueFast(id oal.ProposalID) {
	i, found := slices.BinarySearchFunc(b.fastQ, id, func(a, c oal.ProposalID) int {
		switch {
		case a.Proposer != c.Proposer:
			return int(a.Proposer) - int(c.Proposer)
		case a.Seq < c.Seq:
			return -1
		case a.Seq > c.Seq:
			return 1
		}
		return 0
	})
	if !found {
		b.fastQ = slices.Insert(b.fastQ, i, id)
	}
}

// touch records that the shared content of the descriptor at pos changed
// in the decision sent at ts: every retained baseline is older, so each
// one's delta now reaches down to this ordinal.
func (b *Broadcast) touch(pos int, ts model.Time) {
	b.meta[pos].chg = ts
	b.lowerBaselines(b.view.Entries[pos].Ordinal)
}

// stampOwnAck sets this process's ack bit on the descriptor at pos, as a
// local change no decision has carried yet.
func (b *Broadcast) stampOwnAck(pos int) {
	d := &b.view.Entries[pos]
	if d.Acks.Has(b.self) {
		return
	}
	d.Acks.Add(b.self)
	if !b.meta[pos].ownAck {
		b.meta[pos].ownAck = true
		b.ownAcked = append(b.ownAcked, d.Ordinal)
	}
	b.orderedDirty = true
}

// refreshOwnAcks stamps this process's ack bit on every descriptor whose
// body it holds. Bits go on as bodies and descriptors meet (OnProposal,
// adoption); what is left for here are the bodies that arrived while
// their sender was under an election-time mark.
func (b *Broadcast) refreshOwnAcks() {
	for _, ord := range b.ackDebt {
		i := b.view.Search(ord)
		if i == len(b.view.Entries) || b.view.Entries[i].Ordinal != ord {
			continue
		}
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && !d.Undeliverable && b.ids.body(d.ID) != nil {
			b.stampOwnAck(i)
		}
	}
	b.ackDebt = b.ackDebt[:0]
}

// noteDescriptor does the per-descriptor bookkeeping for the entry at
// pos after it entered the view or an adopted decision rewrote it: the
// purge of an undeliverable update's body, this process's ack, the
// missing-body candidates, and the cursors an entry below them can pull
// back.
func (b *Broadcast) noteDescriptor(pos int) {
	d := &b.view.Entries[pos]
	if d.StableTS == 0 && d.Ordinal < b.stableCur {
		b.stableCur = d.Ordinal
	}
	if d.Kind != oal.UpdateDesc {
		return
	}
	r := b.ids.setOrdinal(d.ID, d.Ordinal)
	have, delivered := r.body != nil, r.delivered
	if d.Undeliverable {
		// Purge the body of an update the decider marked undeliverable,
		// and make sure it is never delivered.
		if have {
			if !delivered {
				b.stats.Purged++
			}
			b.ids.dropBody(d.ID)
		}
		return
	}
	if d.Sem.Order == oal.TimeOrder && !delivered {
		b.queueRelease(d)
	}
	if have {
		b.stampOwnAck(pos)
	} else if !delivered {
		if i, found := slices.BinarySearch(b.bodiless, d.Ordinal); !found {
			b.bodiless = slices.Insert(b.bodiless, i, d.Ordinal)
		}
	}
	if !delivered && d.Ordinal < b.dcur {
		b.dcur = d.Ordinal
	}
	for k, need := range b.ackNeeds() {
		if d.Ordinal < b.ackFail[k] && d.Acks.CountMask(b.groupMask) < need {
			b.ackFail[k] = d.Ordinal
		}
	}
}

// settleAt is the settle point of a time-ordered update: a decision
// stamped at or after it releases the update (orderOK).
func (b *Broadcast) settleAt(d *oal.Descriptor) model.Time {
	return d.SendTS.Add(b.params.Delta + b.params.Epsilon)
}

// queueRelease adds the time-ordered update d to releaseQ unless a
// decision has already passed its settle point.
func (b *Broadcast) queueRelease(d *oal.Descriptor) {
	m := settleMark{at: b.settleAt(d), ord: d.Ordinal}
	if m.at <= b.lastDecTS {
		return
	}
	i, found := slices.BinarySearchFunc(b.releaseQ, m, func(a, c settleMark) int {
		return cmp.Or(cmp.Compare(a.at, c.at), cmp.Compare(a.ord, c.ord))
	})
	if !found {
		b.releaseQ = slices.Insert(b.releaseQ, i, m)
	}
}

// dropReleased drops the releaseQ head a decision has passed, and the
// entries that no longer name an undelivered, unpurged time-ordered
// update of the view (truncated, purged, delivered through a transfer):
// what is left starts with the earliest settle point still pending.
func (b *Broadcast) dropReleased() {
	n := 0
	for ; n < len(b.releaseQ); n++ {
		m := b.releaseQ[n]
		if m.at <= b.lastDecTS {
			continue
		}
		i := b.view.Search(m.ord)
		if i == len(b.view.Entries) || b.view.Entries[i].Ordinal != m.ord {
			continue
		}
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && d.Sem.Order == oal.TimeOrder && !d.Undeliverable &&
			!b.ids.delivered(d.ID) && b.settleAt(d) == m.at {
			break
		}
	}
	b.releaseQ = b.releaseQ[n:]
}

// forget drops what is kept per descriptor once it leaves the view.
func (b *Broadcast) forget(d *oal.Descriptor) {
	if d.Kind != oal.UpdateDesc {
		return
	}
	if b.ids.delivered(d.ID) {
		delete(b.termination, d.ID)
	}
	delete(b.nackAt, d.ID)
	b.ids.forget(d.ID)
}

// forgetHead finishes a truncation of the view's head: removed is what
// oal.List.TruncateStable cut off.
func (b *Broadcast) forgetHead(removed []oal.Descriptor) {
	b.meta = b.meta[len(removed):]
	for i := range removed {
		b.forget(&removed[i])
	}
}

// replaceView installs incoming (owned by the caller no longer) as the
// view, decided at ts, and rebuilds everything derived from it. A
// descriptor whose shared content is what the old view held keeps its
// change stamp, so a full oal adopted here does not make this process's
// next deltas carry the whole list. sameSpace says incoming continues the
// old view's ordinal space, so that what it no longer holds below its
// first ordinal was truncated as stable.
func (b *Broadcast) replaceView(incoming *oal.List, ts model.Time, sameSpace bool) {
	old, oldMeta := b.view, b.meta
	b.view = incoming
	b.meta = make([]entryMeta, len(incoming.Entries))
	lowest := oal.Ordinal(0)
	for i := range incoming.Entries {
		e := &incoming.Entries[i]
		b.meta[i].chg = ts
		if j := old.Search(e.Ordinal); !b.pristineLost && j < len(old.Entries) && old.Entries[j].Ordinal == e.Ordinal {
			prev := old.Entries[j]
			if oldMeta[j].ownAck {
				prev.Acks.Remove(b.self)
			}
			if prev.Equal(e) {
				b.meta[i].chg = oldMeta[j].chg
				continue
			}
		}
		if lowest == 0 {
			lowest = e.Ordinal
		}
	}
	if lowest != 0 {
		b.lowerBaselines(lowest)
	}
	trunc := oal.TruncationPoint(incoming)
	for i := range old.Entries {
		d := &old.Entries[i]
		if d.Kind != oal.UpdateDesc {
			continue
		}
		if cur := incoming.FindOrdinal(d.Ordinal); cur != nil && cur.Kind == oal.UpdateDesc && cur.ID == d.ID {
			continue
		}
		if sameSpace && d.Ordinal < trunc {
			b.forget(d)
		} else if b.ids.delivered(d.ID) {
			// Displaced, not truncated: the update may be ordered again,
			// so the delivered mark stays; its body has served.
			b.ids.dropBody(d.ID)
		}
	}
	b.pristineLost = false
	b.reindex()
}

// reindex rebuilds the index, the candidate lists and the cursors from
// the view, the proposal buffer and the delivered set.
func (b *Broadcast) reindex() {
	b.ids.clearOrdinals()
	b.bodiless = b.bodiless[:0]
	b.ackDebt = b.ackDebt[:0]
	b.ownAcked = b.ownAcked[:0]
	b.releaseQ = b.releaseQ[:0]
	b.fastQ = b.fastQ[:0]
	b.dcur, b.stableCur = 0, b.view.Next
	b.ackFail = [2]oal.Ordinal{}
	for i := range b.meta {
		if b.meta[i].ownAck {
			b.ownAcked = append(b.ownAcked, b.view.Entries[i].Ordinal)
		}
	}
	for id, r := range b.ids.all() {
		if p := r.body; p != nil && p.Sem.Order == oal.Unordered && p.Sem.Atomicity == oal.WeakAtomicity && !r.delivered {
			b.queueFast(id)
		}
	}
	for i := range b.view.Entries {
		b.noteDescriptor(i)
	}
	b.ids.tidy()
	b.orderedDirty = true
}

// ackNeeds returns how many of the group's acknowledgements strong and
// strict atomicity ask for.
func (b *Broadcast) ackNeeds() [2]int {
	return [2]int{ackMajority: b.group.Size()/2 + 1, ackAll: b.group.Size()}
}

// firstAckFail advances and returns ackFail[k]: the ordinal of the first
// retained update that is not purged and lacks need acknowledgements
// from the group, or the next ordinal to assign when there is none.
func (b *Broadcast) firstAckFail(k, need int) oal.Ordinal {
	i := b.view.Search(b.ackFail[k])
	for ; i < len(b.view.Entries); i++ {
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && !d.Undeliverable && d.Acks.CountMask(b.groupMask) < need {
			b.ackFail[k] = d.Ordinal
			return d.Ordinal
		}
	}
	b.ackFail[k] = b.view.Next
	return b.view.Next
}
