package broadcast

import (
	"cmp"
	"iter"
	"slices"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Per-proposal bookkeeping, by proposer and sequence.
//
// What this process keeps about one proposal — its body, the ordinal the
// view gives it, whether it was handed to the application — sits in one
// record. Records are grouped by proposer and kept in ascending sequence
// order. A proposer numbers its proposals contiguously within one life,
// deciders order them in that order and the view truncates them in about
// that order, so records are appended at the tail and retired at the
// head, and a lookup is nearly always a direct index: the distance from
// the last record's sequence, with a binary search behind it. The
// delivery path reaches every descriptor of every decision through this
// table; indexing instead of hashing keeps that cost flat as the
// ordering rate grows, and retiring records leaves no tombstones
// behind. (One map from proposal ID to record costs a third more CPU per
// delivery on the saturated benchmark: docs/PERFORMANCE.md §5.7.)
//
// A record holding nothing is empty. Empty records at the head are
// dropped at once; empty ones behind a record still held (the delivered
// mark of an update the view no longer holds, say) are compacted away
// once they make up over half of the proposer's records.
//
// Each proposer also lists, in ascending order, the sequences of the
// bodies the view does not order yet (pend): what the next decider
// orders.

// idRec is what this process keeps about one proposal.
type idRec struct {
	seq uint64
	// ord is the ordinal of the update's descriptor in the view, or
	// oal.None while the view holds none.
	ord oal.Ordinal
	// body is the proposal, while it is in the proposal buffer.
	body *wire.Proposal
	// delivered marks an update handed to the application, until its
	// descriptor is truncated from the view: a duplicate body arriving
	// after that is rejected as stale by the ordered-sequence rule in
	// OnProposal, so the mark is no longer needed.
	delivered bool
}

// pending says the body is held and the view does not order it yet.
func (r *idRec) pending() bool { return r.body != nil && r.ord == oal.None }

func (r *idRec) empty() bool { return r.body == nil && r.ord == oal.None && !r.delivered }

// proposerIDs is one proposer's share of the table.
type proposerIDs struct {
	proposer model.ProcessID
	// ordered is the highest sequence of this proposer that has been
	// assigned an ordinal; deciders only order contiguous sequences, so
	// ordinal order preserves per-sender FIFO.
	ordered uint64
	recs    []idRec  // ascending seq
	empties int      // empty records in recs
	pend    []uint64 // ascending: the sequences of the pending records
}

// idTable holds the records of every proposer, by ascending proposer.
type idTable struct {
	procs []*proposerIDs
}

// find returns the position of proposer p in procs, or where it goes,
// and whether it is there. Every lookup starts here: a binary search
// written out, which the compiler inlines (slices.BinarySearchFunc with
// a comparison closure made adopting a decision a third slower).
func (t *idTable) find(p model.ProcessID) (int, bool) {
	i, j := 0, len(t.procs)
	for i < j {
		if h := int(uint(i+j) >> 1); t.procs[h].proposer < p {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(t.procs) && t.procs[i].proposer == p
}

// of returns proposer p's records, or nil when none were ever kept.
func (t *idTable) of(p model.ProcessID) *proposerIDs {
	if i, ok := t.find(p); ok {
		return t.procs[i]
	}
	return nil
}

// add returns proposer p's records, creating them when missing.
func (t *idTable) add(p model.ProcessID) *proposerIDs {
	i, ok := t.find(p)
	if !ok {
		t.procs = slices.Insert(t.procs, i, &proposerIDs{proposer: p})
	}
	return t.procs[i]
}

// orderedSeq returns proposer p's highest ordered sequence.
func (t *idTable) orderedSeq(p model.ProcessID) uint64 {
	if pr := t.of(p); pr != nil {
		return pr.ordered
	}
	return 0
}

// raiseOrdered raises proposer p's highest ordered sequence to seq, and
// reports whether it moved.
func (t *idTable) raiseOrdered(p model.ProcessID, seq uint64) bool {
	if seq <= t.orderedSeq(p) {
		return false
	}
	t.add(p).ordered = seq
	return true
}

// fifo returns the ordered-sequence cursors, by ascending proposer.
func (t *idTable) fifo() []wire.FIFOEntry {
	var out []wire.FIFOEntry
	for _, pr := range t.procs {
		if pr.ordered > 0 {
			out = append(out, wire.FIFOEntry{Proposer: pr.proposer, Seq: pr.ordered})
		}
	}
	return out
}

// index returns the position of seq's record, or -1.
func (pr *proposerIDs) index(seq uint64) int {
	n := uint64(len(pr.recs))
	if n == 0 {
		return -1
	}
	if d := pr.recs[n-1].seq - seq; d < n && pr.recs[n-1-d].seq == seq {
		return int(n - 1 - d)
	}
	if i, found := slices.BinarySearchFunc(pr.recs, seq, cmpSeq); found {
		return i
	}
	return -1
}

func cmpSeq(r idRec, seq uint64) int { return cmp.Compare(r.seq, seq) }

// rec returns id's record, or nil. The pointer is good until the next
// change to the table.
func (t *idTable) rec(id oal.ProposalID) *idRec {
	if pr := t.of(id.Proposer); pr != nil {
		if i := pr.index(id.Seq); i >= 0 {
			return &pr.recs[i]
		}
	}
	return nil
}

// edit returns the proposer and position of id's record for a change
// that commit then finishes; create makes a missing record, which is
// otherwise reported as a nil proposer.
func (t *idTable) edit(id oal.ProposalID, create bool) (*proposerIDs, int) {
	pr := t.of(id.Proposer)
	if pr == nil {
		if !create {
			return nil, 0
		}
		pr = t.add(id.Proposer)
	}
	if i := pr.index(id.Seq); i >= 0 {
		return pr, i
	}
	if !create {
		return nil, 0
	}
	i := len(pr.recs)
	if i > 0 && pr.recs[i-1].seq > id.Seq {
		i, _ = slices.BinarySearchFunc(pr.recs, id.Seq, cmpSeq)
	}
	pr.recs = slices.Insert(pr.recs, i, idRec{seq: id.Seq})
	pr.empties++
	return pr, i
}

// commit finishes a change to the record at position i, which held was
// before it: it keeps pend and the empty count in step and retires empty
// records. Positions move when it returns.
func (pr *proposerIDs) commit(i int, was idRec) {
	r := &pr.recs[i]
	switch before, after := was.pending(), r.pending(); {
	case after && !before:
		if n := len(pr.pend); n == 0 || pr.pend[n-1] < r.seq {
			pr.pend = append(pr.pend, r.seq)
		} else if j, found := slices.BinarySearch(pr.pend, r.seq); !found {
			pr.pend = slices.Insert(pr.pend, j, r.seq)
		}
	case before && !after:
		if pr.pend[0] == r.seq {
			pr.pend = trimFront(pr.pend, 1)
		} else if j, found := slices.BinarySearch(pr.pend, r.seq); found {
			pr.pend = slices.Delete(pr.pend, j, j+1)
		}
	}
	switch before, after := was.empty(), r.empty(); {
	case after && !before:
		pr.empties++
	case before && !after:
		pr.empties--
	}
	if r.empty() {
		pr.retire()
	}
}

// retire drops the empty records at the head, and compacts the rest
// once empty records make up half of them.
func (pr *proposerIDs) retire() {
	n := 0
	for n < len(pr.recs) && pr.recs[n].empty() {
		n++
	}
	pr.recs = trimFront(pr.recs, n)
	pr.empties -= n
	if 2*pr.empties > len(pr.recs) {
		pr.recs = slices.DeleteFunc(pr.recs, func(r idRec) bool { return r.empty() })
		pr.empties = 0
	}
}

// trimFront drops the first n elements of s. A short remainder moves to
// the front of s's array instead of s being resliced past them, so a
// list that empties and refills, as at a low proposal rate, keeps its
// array instead of losing it from the front one element at a time and
// growing a new one.
func trimFront[E any](s []E, n int) []E {
	if len(s)-n > 32 {
		return s[n:]
	}
	m := copy(s, s[n:])
	clear(s[m:])
	return s[:m]
}

// setBody puts p in the proposal buffer.
func (t *idTable) setBody(p *wire.Proposal) {
	pr, i := t.edit(p.ID, true)
	was := pr.recs[i]
	pr.recs[i].body = p
	pr.commit(i, was)
}

// dropBody removes id's body from the proposal buffer.
func (t *idTable) dropBody(id oal.ProposalID) {
	if pr, i := t.edit(id, false); pr != nil && pr.recs[i].body != nil {
		was := pr.recs[i]
		pr.recs[i].body = nil
		pr.commit(i, was)
	}
}

// setOrdinal records that the view orders id at ord, and returns id's
// record.
func (t *idTable) setOrdinal(id oal.ProposalID, ord oal.Ordinal) *idRec {
	pr, i := t.edit(id, true)
	was := pr.recs[i]
	pr.recs[i].ord = ord
	pr.commit(i, was) // a record that holds an ordinal stays where it is
	return &pr.recs[i]
}

// markDelivered sets id's delivered mark.
func (t *idTable) markDelivered(id oal.ProposalID) {
	pr, i := t.edit(id, true)
	was := pr.recs[i]
	pr.recs[i].delivered = true
	pr.commit(i, was)
}

// forget drops all that is kept about id.
func (t *idTable) forget(id oal.ProposalID) {
	if pr, i := t.edit(id, false); pr != nil && !pr.recs[i].empty() {
		was := pr.recs[i]
		pr.recs[i] = idRec{seq: id.Seq}
		pr.commit(i, was)
	}
}

// clearOrdinals forgets every ordinal, as before the view is indexed
// anew: every held body is pending again. Empty records stay where they
// are until tidy, so re-indexing the view does not insert them again.
func (t *idTable) clearOrdinals() {
	for _, pr := range t.procs {
		pr.pend, pr.empties = pr.pend[:0], 0
		for i := range pr.recs {
			r := &pr.recs[i]
			r.ord = oal.None
			if r.body != nil {
				pr.pend = append(pr.pend, r.seq)
			}
			if r.empty() {
				pr.empties++
			}
		}
	}
}

// tidy retires the empty records of every proposer.
func (t *idTable) tidy() {
	for _, pr := range t.procs {
		pr.retire()
	}
}

// all yields every non-empty record, by proposer and then sequence.
func (t *idTable) all() iter.Seq2[oal.ProposalID, *idRec] {
	return func(yield func(oal.ProposalID, *idRec) bool) {
		for _, pr := range t.procs {
			for i := range pr.recs {
				r := &pr.recs[i]
				if !r.empty() && !yield(oal.ProposalID{Proposer: pr.proposer, Seq: r.seq}, r) {
					return
				}
			}
		}
	}
}

// body returns id's body, or nil when the proposal buffer lacks it.
func (t *idTable) body(id oal.ProposalID) *wire.Proposal {
	if r := t.rec(id); r != nil {
		return r.body
	}
	return nil
}

// delivered reports id's delivered mark.
func (t *idTable) delivered(id oal.ProposalID) bool {
	r := t.rec(id)
	return r != nil && r.delivered
}

// ordinal returns the ordinal the view gives id, or oal.None.
func (t *idTable) ordinal(id oal.ProposalID) oal.Ordinal {
	if r := t.rec(id); r != nil {
		return r.ord
	}
	return oal.None
}
