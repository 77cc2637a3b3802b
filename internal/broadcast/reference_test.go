package broadcast

import (
	"sort"

	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// The delivery path as it was before the view was indexed: every call
// sorts the whole proposal buffer, rescans the whole view and looks
// descriptors up with the linear List.Find. It reads nothing of the
// index (ordOf, the candidate lists, the cursors, the ack watermarks),
// only the state both versions share — view, pb, delivered, dpd, group,
// suppression marks — so installing it as deliverRef gives an
// independent oracle for what must be delivered, and in which order.

func refTryDeliver(b *Broadcast, now model.Time) {
	if b.deferApp {
		return
	}
	refDeliverFast(b, now)
	for refDeliverOrderedPass(b, now) {
	}
}

func refDeliverFast(b *Broadcast, now model.Time) {
	var ids []oal.ProposalID
	for id, r := range b.ids.all() {
		if r.body != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Proposer != ids[j].Proposer {
			return ids[i].Proposer < ids[j].Proposer
		}
		return ids[i].Seq < ids[j].Seq
	})
	for _, id := range ids {
		p := b.ids.body(id)
		if b.ids.delivered(id) {
			continue
		}
		if p.Sem.Order != oal.Unordered || p.Sem.Atomicity != oal.WeakAtomicity {
			continue
		}
		if b.senderSuppressed(id.Proposer, now) {
			continue
		}
		d := b.view.Find(id)
		if d != nil && d.Undeliverable {
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
}

func refDeliverOrderedPass(b *Broadcast, now model.Time) bool {
	any := false
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if d.Kind != oal.UpdateDesc || d.Undeliverable || b.ids.delivered(d.ID) {
			continue
		}
		if d.Ordinal != oal.None && d.Ordinal <= b.snapshotCovered {
			b.ids.markDelivered(d.ID)
			any = true
			continue
		}
		p := b.ids.body(d.ID)
		if p == nil {
			continue
		}
		if b.senderSuppressed(d.ID.Proposer, now) {
			continue
		}
		if !refAtomicityOK(b, d) || !refOrderOK(b, d) || !refFifoOK(b, d) {
			continue
		}
		b.deliver(p, d.Ordinal, now)
		any = true
	}
	return any
}

func refAtomicityOK(b *Broadcast, d *oal.Descriptor) bool {
	var need int
	switch d.Sem.Atomicity {
	case oal.WeakAtomicity:
		return true
	case oal.StrongAtomicity:
		need = b.group.Size()/2 + 1
	case oal.StrictAtomicity:
		need = b.group.Size()
	default:
		return false
	}
	if b.group.Size() == 0 {
		return false
	}
	if d.Acks.CountIn(b.group) < need {
		return false
	}
	if d.HDO > b.view.HighestOrdinal() {
		return false
	}
	for i := range b.view.Entries {
		dep := &b.view.Entries[i]
		if dep.Ordinal == oal.None || dep.Ordinal > d.HDO {
			continue
		}
		if dep.Kind != oal.UpdateDesc || dep.Undeliverable {
			continue
		}
		if dep.Acks.CountIn(b.group) < need {
			return false
		}
	}
	return true
}

func refOrderOK(b *Broadcast, d *oal.Descriptor) bool {
	switch d.Sem.Order {
	case oal.Unordered:
		return true
	case oal.TotalOrder:
		for i := range b.view.Entries {
			e := &b.view.Entries[i]
			if e.Ordinal >= d.Ordinal {
				break
			}
			if e.Kind != oal.UpdateDesc || e.Sem.Order != oal.TotalOrder {
				continue
			}
			if !e.Undeliverable && !b.ids.delivered(e.ID) {
				return false
			}
		}
		return true
	case oal.TimeOrder:
		if b.lastDecTS < d.SendTS.Add(b.params.Delta+b.params.Epsilon) {
			return false
		}
		for i := range b.view.Entries {
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

func refFifoOK(b *Broadcast, d *oal.Descriptor) bool {
	for i := range b.view.Entries {
		e := &b.view.Entries[i]
		if e.Kind != oal.UpdateDesc || e.ID.Proposer != d.ID.Proposer || e.ID.Seq >= d.ID.Seq {
			continue
		}
		if e.Sem.Order == oal.Unordered {
			continue
		}
		if !e.Undeliverable && !b.ids.delivered(e.ID) {
			return false
		}
	}
	return true
}
