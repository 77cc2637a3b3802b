package broadcast

import (
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Image is a portable summary of the broadcast layer's delivery state —
// what a durable node persists alongside its application snapshot and
// seeds back after a restart. It deliberately contains no payloads:
// everything at or below Covered (and every Extra identity) is already
// folded into the application state the image accompanies.
type Image struct {
	// Lineage is the ordinal space Covered belongs to (the sequence
	// number of the group formation that started it).
	Lineage model.GroupSeq
	// Covered is the contiguous ordinal prefix the accompanying
	// application state provably includes.
	Covered oal.Ordinal
	// SettledTS is the time-order settled high-water mark.
	SettledTS model.Time
	// Extra lists deliveries beyond Covered: retained ordered updates
	// past a coverage gap, and fast-path deliveries (Ordinal oal.None).
	Extra []ImageExtra
	// FIFO holds the per-proposer ordering cursors.
	FIFO []wire.FIFOEntry
}

// ImageExtra identifies one delivery beyond the image's coverage.
type ImageExtra struct {
	ID      oal.ProposalID
	Ordinal oal.Ordinal
}

// Lineage returns the ordinal lineage this process currently operates
// in (0 before the first formation or adoption).
func (b *Broadcast) Lineage() model.GroupSeq { return b.lineage }

// CoveredOrdinal returns the contiguous ordinal prefix this process has
// delivered (or holds covered by an installed snapshot): every update
// and membership descriptor through it is reflected in the application
// state. This is what a restarting process advertises in its join
// message so the decider can serve it a replay delta.
func (b *Broadcast) CoveredOrdinal() oal.Ordinal {
	covered := b.view.HighestOrdinal()
	if len(b.view.Entries) > 0 {
		// Everything truncated off the view's head was stable — fully
		// acknowledged and delivered everywhere, including here.
		covered = b.view.Entries[0].Ordinal - 1
		for i := range b.view.Entries {
			d := &b.view.Entries[i]
			if d.Ordinal != covered+1 {
				break
			}
			if d.Kind == oal.MembershipDesc || d.Undeliverable || b.ids.delivered(d.ID) {
				covered = d.Ordinal
				continue
			}
			break
		}
	}
	if covered < b.snapshotCovered {
		covered = b.snapshotCovered
	}
	return covered
}

// MembershipOrdinal returns the ordinal the retained oal assigns to the
// membership descriptor for group sequence seq, or oal.None when no
// such descriptor is (or no longer is) retained. A durable node logs it
// with each installed view so recovery can count membership ordinals
// toward the contiguous coverage it advertises; a missing ordinal only
// understates the claim, degrading a rejoin to a full transfer.
func (b *Broadcast) MembershipOrdinal(seq model.GroupSeq) oal.Ordinal {
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if d.Kind == oal.MembershipDesc && d.GroupSeq == seq {
			return d.Ordinal
		}
	}
	return oal.None
}

// SnapshotImage captures the delivery state matching the application
// state at this instant; the node layer persists it as the snapshot's
// protocol metadata. Call it from the same event loop that drives
// deliveries, with the application state captured atomically alongside.
func (b *Broadcast) SnapshotImage() Image {
	img := Image{
		Lineage:   b.lineage,
		Covered:   b.CoveredOrdinal(),
		SettledTS: b.maxSettledTimeTS,
	}
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && d.Ordinal > img.Covered && b.ids.delivered(d.ID) {
			img.Extra = append(img.Extra, ImageExtra{ID: d.ID, Ordinal: d.Ordinal})
		}
	}
	b.compactDPD()
	for _, id := range b.dpd {
		img.Extra = append(img.Extra, ImageExtra{ID: id, Ordinal: oal.None})
	}
	img.FIFO = b.ids.fifo()
	return img
}

// SeedRecovered primes a fresh broadcast instance with the delivery
// state recovered from disk, before the protocol starts: the recovered
// application state already reflects the image's coverage and extras,
// so none of it may be re-delivered. The seeded lineage and coverage
// are what the join message advertises.
func (b *Broadcast) SeedRecovered(img Image) {
	b.lineage = img.Lineage
	if img.Covered > b.snapshotCovered {
		b.snapshotCovered = img.Covered
	}
	if img.SettledTS > b.maxSettledTimeTS {
		b.maxSettledTimeTS = img.SettledTS
	}
	for _, x := range img.Extra {
		b.ids.markDelivered(x.ID)
	}
	b.orderedDirty = true
	for _, f := range img.FIFO {
		b.ids.raiseOrdered(f.Proposer, f.Seq)
		if f.Proposer == b.self && f.Seq > b.nextSeq {
			b.nextSeq = f.Seq
		}
	}
}

// BeginLineage starts a new ordinal lineage at a group formation: the
// forming decider calls it with the new group's sequence number before
// announcing the group, so its decisions stamp the lineage every member
// (and every future rejoiner) compares coverage against.
func (b *Broadcast) BeginLineage(lin model.GroupSeq) { b.adoptLineage(lin) }

// adoptLineage switches this process into lineage lin. Coverage seeded
// from an earlier lineage is meaningless against the new ordinal space
// and is dropped; delivered-update identities are kept (proposal
// sequence numbers are clock-seeded, so identities never recur across
// lineages and the marks keep suppressing genuine duplicates).
func (b *Broadcast) adoptLineage(lin model.GroupSeq) {
	if lin == b.lineage {
		return
	}
	prev := b.lineage
	b.lineage = lin
	b.clearBaselines() // baselines never cross ordinal spaces
	if prev != 0 {
		b.snapshotCovered = 0
	}
	if b.cfg.OnLineage != nil {
		b.cfg.OnLineage(lin)
	}
}
