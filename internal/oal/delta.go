package oal

// Delta encoding of oal content for wire v5 decision/no-decision frames.
//
// A decision re-ships the decider's whole retained oal every cycle; in
// steady state most entries are unchanged since the previous decision the
// receiver already adopted. Diff/ReconstructInto let the sender ship only
// the entries that changed (plus the truncation point), and the receiver
// rebuild the identical full list from its pristine copy of the previous
// decision. Both sides key entries by ordinal: lists hold entries in
// strictly increasing ordinal order by construction (ordinals are
// assigned at append time), which the functions verify defensively so a
// corrupt or divergent peer degrades to a full-list resend instead of a
// wrong reconstruction.

// strictlyOrdered reports whether entries are in strictly increasing
// ordinal order with no unassigned ordinals — the precondition for
// ordinal-keyed delta merging.
func strictlyOrdered(entries []Descriptor) bool {
	prev := None
	for i := range entries {
		o := entries[i].Ordinal
		if o == None || o <= prev {
			return false
		}
		prev = o
	}
	return true
}

// Equal reports whether a and b agree in every field, acknowledgement
// bits, marks and stability stamp included (List.Equal's per-entry
// comparison, shared with Diff).
func (a *Descriptor) Equal(b *Descriptor) bool {
	if a.Kind != b.Kind || a.Ordinal != b.Ordinal || a.ID != b.ID ||
		a.Sem != b.Sem || a.HDO != b.HDO || a.Acks != b.Acks ||
		a.Undeliverable != b.Undeliverable || a.SendTS != b.SendTS ||
		a.StableTS != b.StableTS || a.GroupSeq != b.GroupSeq {
		return false
	}
	if len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

// Diff computes the entries of full that are new or changed relative to
// base: entries whose ordinal base does not hold, or holds with any
// differing field (acks, marks, stability — the per-field comparison of
// Equal). The returned descriptors are deep copies, safe to hand to a
// wire message that outlives full. ok is false when either list violates
// the strictly-increasing-ordinal precondition; callers must then fall
// back to shipping the full list.
func Diff(base, full *List) (delta []Descriptor, ok bool) {
	if !strictlyOrdered(base.Entries) || !strictlyOrdered(full.Entries) {
		return nil, false
	}
	for i := range full.Entries {
		f := &full.Entries[i]
		b := base.FindOrdinal(f.Ordinal)
		if b == nil || !b.Equal(f) {
			delta = append(delta, f.Clone())
		}
	}
	return delta, true
}

// TruncationPoint returns the first retained ordinal of l (Next when the
// list is empty): everything below it has been truncated by the sender
// and must be dropped by a receiver reconstructing from an older base.
func TruncationPoint(l *List) Ordinal {
	l.norm()
	if len(l.Entries) == 0 {
		return l.Next
	}
	return l.Entries[0].Ordinal
}

// ReconstructInto rebuilds the sender's full list into dst from the
// receiver's pristine base (the content of the previous decision both
// sides share), the sender's truncation point, and the delta entries.
// Base entries below truncBelow are dropped; a delta entry replaces the
// base entry with the same ordinal; delta entries beyond base extend the
// list. Entries taken from base are deep-copied so base stays pristine;
// delta entries are shallow-copied (the caller owns the decoded message).
// dst's slices are reused when capacity allows. ok is false when either
// input violates the ordinal-order precondition — dst is then
// unspecified and the caller must request a full list instead.
func ReconstructInto(dst *List, base *List, truncBelow Ordinal, delta *List) (ok bool) {
	if !strictlyOrdered(base.Entries) || !strictlyOrdered(delta.Entries) {
		return false
	}
	dst.Entries = dst.Entries[:0]
	dst.Next = delta.Next
	dst.norm()
	bi, di := 0, 0
	for bi < len(base.Entries) && base.Entries[bi].Ordinal < truncBelow {
		bi++
	}
	for bi < len(base.Entries) || di < len(delta.Entries) {
		switch {
		case bi == len(base.Entries):
			dst.Entries = append(dst.Entries, delta.Entries[di])
			di++
		case di == len(delta.Entries):
			dst.Entries = append(dst.Entries, base.Entries[bi].Clone())
			bi++
		case base.Entries[bi].Ordinal == delta.Entries[di].Ordinal:
			dst.Entries = append(dst.Entries, delta.Entries[di])
			bi++
			di++
		case base.Entries[bi].Ordinal < delta.Entries[di].Ordinal:
			dst.Entries = append(dst.Entries, base.Entries[bi].Clone())
			bi++
		default:
			dst.Entries = append(dst.Entries, delta.Entries[di])
			di++
		}
	}
	return true
}
