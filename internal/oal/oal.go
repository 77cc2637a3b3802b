// Package oal implements the ordering and acknowledgement list ("oal")
// of the timewheel atomic broadcast protocol, together with the protocol
// vocabulary that hangs off it: proposal identifiers, ordinals, ordering
// and atomicity semantics, and acknowledgement sets.
//
// A decision message carries an oal: a sequence of update and membership
// change descriptors, each tagged with a unique ordinal, plus information
// about which group members have received (acknowledged) each
// update/membership change. The oal is the protocol's shared log
// metadata: it establishes ordinals, records stability, and — across view
// changes — carries the undeliverable marks of §4.3 of the paper.
package oal

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"timewheel/internal/model"
)

// Ordinal is the unique number a decision message associates with an
// update or membership change. Ordinal 0 means "not yet assigned"; real
// ordinals start at 1 and increase without gaps in decision order.
type Ordinal uint64

// None is the unassigned ordinal.
const None Ordinal = 0

// ProposalID names a proposal uniquely: the proposing process plus a
// per-proposer sequence number (FIFO order per proposer).
type ProposalID struct {
	Proposer model.ProcessID
	Seq      uint64
}

func (id ProposalID) String() string {
	return fmt.Sprintf("%v#%d", id.Proposer, id.Seq)
}

// Order is an ordering semantic of the timewheel broadcast service.
type Order uint8

const (
	// Unordered delivery: any order once atomicity is satisfied
	// (per-sender FIFO is still preserved).
	Unordered Order = iota
	// TotalOrder delivery: all members deliver updates in ordinal order.
	TotalOrder
	// TimeOrder delivery: all members deliver updates in send-timestamp
	// order of their synchronized clocks.
	TimeOrder
)

func (o Order) String() string {
	switch o {
	case Unordered:
		return "unordered"
	case TotalOrder:
		return "total"
	case TimeOrder:
		return "time"
	default:
		return fmt.Sprintf("order(%d)", uint8(o))
	}
}

// Atomicity is an atomicity semantic of the timewheel broadcast service.
type Atomicity uint8

const (
	// WeakAtomicity: deliver as soon as the update is received locally
	// and has an ordinal.
	WeakAtomicity Atomicity = iota
	// StrongAtomicity: deliver only after a majority of the group has
	// acknowledged every proposal the update may depend on (ordinals up
	// to its hdo).
	StrongAtomicity
	// StrictAtomicity: as strong, but every current group member must
	// have acknowledged.
	StrictAtomicity
)

func (a Atomicity) String() string {
	switch a {
	case WeakAtomicity:
		return "weak"
	case StrongAtomicity:
		return "strong"
	case StrictAtomicity:
		return "strict"
	default:
		return fmt.Sprintf("atomicity(%d)", uint8(a))
	}
}

// Semantics couples the ordering and atomicity requested for a proposal.
type Semantics struct {
	Order     Order
	Atomicity Atomicity
}

func (s Semantics) String() string { return s.Order.String() + "/" + s.Atomicity.String() }

// AckSet is a bitmask of process IDs that have acknowledged a descriptor.
// The implementation supports teams of up to 64 processes, far beyond the
// workstation-cluster scale the protocol targets.
type AckSet uint64

// MaxProcesses is the largest team size an AckSet can represent.
const MaxProcesses = 64

// Add marks p as having acknowledged.
func (a *AckSet) Add(p model.ProcessID) {
	if p >= 0 && p < MaxProcesses {
		*a |= 1 << uint(p)
	}
}

// Remove clears p's acknowledgement.
func (a *AckSet) Remove(p model.ProcessID) {
	if p >= 0 && p < MaxProcesses {
		*a &^= 1 << uint(p)
	}
}

// Has reports whether p has acknowledged.
func (a AckSet) Has(p model.ProcessID) bool {
	return p >= 0 && p < MaxProcesses && a&(1<<uint(p)) != 0
}

// Count returns the number of acknowledgements.
func (a AckSet) Count() int { return bits.OnesCount64(uint64(a)) }

// CountIn returns how many members of g have acknowledged.
func (a AckSet) CountIn(g model.Group) int {
	n := 0
	for _, m := range g.Members {
		if a.Has(m) {
			n++
		}
	}
	return n
}

// MaskOf returns the ack set holding exactly g's members: counting a
// descriptor's acknowledgements within g is then Intersect + Count, with
// no walk over the member list.
func MaskOf(g model.Group) AckSet {
	var a AckSet
	for _, m := range g.Members {
		a.Add(m)
	}
	return a
}

// CountMask returns how many processes of mask have acknowledged.
func (a AckSet) CountMask(mask AckSet) int { return bits.OnesCount64(uint64(a & mask)) }

// Union merges two ack sets.
func (a AckSet) Union(b AckSet) AckSet { return a | b }

func (a AckSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for p := model.ProcessID(0); p < MaxProcesses; p++ {
		if a.Has(p) {
			if !first {
				sb.WriteByte(',')
			}
			sb.WriteString(p.String())
			first = false
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// DescriptorKind distinguishes update descriptors from membership change
// descriptors in the oal.
type DescriptorKind uint8

const (
	// UpdateDesc describes a broadcast update (a proposal).
	UpdateDesc DescriptorKind = iota
	// MembershipDesc describes a membership change (a new group-list).
	MembershipDesc
)

func (k DescriptorKind) String() string {
	if k == MembershipDesc {
		return "membership"
	}
	return "update"
}

// Descriptor is one entry of the oal.
type Descriptor struct {
	Kind    DescriptorKind
	Ordinal Ordinal

	// Update descriptors.
	ID     ProposalID // which proposal
	SendTS model.Time // proposal send timestamp (synchronized clock)
	Sem    Semantics
	HDO    Ordinal // highest dependency ordinal carried by the proposal
	Acks   AckSet  // members known to have received the proposal

	// Undeliverable marks a purged update (§4.3): no group member may
	// deliver it. Set only on update descriptors.
	Undeliverable bool

	// StableTS is the synchronized-clock time at which the descriptor
	// became stable (acknowledged by every group member, marked
	// undeliverable, or — for membership descriptors — created). Zero
	// means not yet stable. Deciders truncate descriptors whose
	// stability is older than one cycle: by then every member has
	// rotated through the decider role and consumed them.
	StableTS model.Time

	// Membership descriptors.
	GroupSeq model.GroupSeq
	Members  []model.ProcessID
}

// Clone deep-copies the descriptor.
func (d Descriptor) Clone() Descriptor {
	d.Members = slices.Clone(d.Members)
	return d
}

func (d Descriptor) String() string {
	if d.Kind == MembershipDesc {
		return fmt.Sprintf("[o%d member g%d %v]", d.Ordinal, d.GroupSeq, d.Members)
	}
	mark := ""
	if d.Undeliverable {
		mark = " UNDELIVERABLE"
	}
	return fmt.Sprintf("[o%d %v %v acks=%d%s]", d.Ordinal, d.ID, d.Sem, d.Acks.Count(), mark)
}

// List is an ordering and acknowledgement list: descriptors in ordinal
// order, plus the next ordinal to assign. The zero value is an empty list
// whose first assigned ordinal is 1.
type List struct {
	// Entries are in strictly increasing ordinal order. The head may
	// have been truncated (stable prefix purged); FirstOrdinal tracks
	// how many ordinals precede Entries[0].
	Entries []Descriptor
	// Next is the next ordinal a decider will assign. A zero value is
	// normalised to 1 on first use.
	Next Ordinal
}

// NewList returns an empty list that will assign ordinals from 1.
func NewList() *List { return &List{Next: 1} }

func (l *List) norm() {
	if l.Next == 0 {
		l.Next = 1
	}
}

// Len returns the number of descriptors currently held.
func (l *List) Len() int { return len(l.Entries) }

// HighestOrdinal returns the largest ordinal ever assigned (Next-1).
func (l *List) HighestOrdinal() Ordinal {
	l.norm()
	return l.Next - 1
}

// AppendUpdate assigns the next ordinal to proposal id and appends its
// descriptor, returning the assigned ordinal. Only deciders append.
func (l *List) AppendUpdate(id ProposalID, sem Semantics, sendTS model.Time, hdo Ordinal, acks AckSet) Ordinal {
	l.norm()
	ord := l.Next
	l.Next++
	l.Entries = append(l.Entries, Descriptor{
		Kind:    UpdateDesc,
		Ordinal: ord,
		ID:      id,
		SendTS:  sendTS,
		Sem:     sem,
		HDO:     hdo,
		Acks:    acks,
	})
	return ord
}

// AppendMembership assigns the next ordinal to a membership change and
// appends its descriptor, returning the assigned ordinal.
func (l *List) AppendMembership(g model.Group) Ordinal {
	l.norm()
	ord := l.Next
	l.Next++
	l.Entries = append(l.Entries, Descriptor{
		Kind:     MembershipDesc,
		Ordinal:  ord,
		GroupSeq: g.Seq,
		Members:  slices.Clone(g.Members),
	})
	return ord
}

// Find returns a pointer to the descriptor with the given proposal ID, or
// nil if absent (never for membership descriptors).
func (l *List) Find(id ProposalID) *Descriptor {
	for i := range l.Entries {
		d := &l.Entries[i]
		if d.Kind == UpdateDesc && d.ID == id {
			return d
		}
	}
	return nil
}

// Search returns the position of the first descriptor whose ordinal is at
// least ord (len(Entries) when there is none). Ordinals are assigned
// without gaps and only a prefix is ever truncated, so in every list a
// correct process builds the position is ord minus the first retained
// ordinal; a list with holes (only a corrupt peer sends one) falls back
// to binary search.
func (l *List) Search(ord Ordinal) int {
	n := len(l.Entries)
	if n == 0 || ord <= l.Entries[0].Ordinal {
		return 0
	}
	if i := uint64(ord - l.Entries[0].Ordinal); i < uint64(n) {
		if l.Entries[i].Ordinal == ord {
			return int(i)
		}
	} else if last := l.Entries[n-1].Ordinal; last-l.Entries[0].Ordinal == Ordinal(n-1) {
		if ord > last {
			return n
		}
	}
	i, _ := slices.BinarySearchFunc(l.Entries, ord, func(d Descriptor, o Ordinal) int {
		switch {
		case d.Ordinal < o:
			return -1
		case d.Ordinal > o:
			return 1
		default:
			return 0
		}
	})
	return i
}

// FindOrdinal returns a pointer to the descriptor with the given ordinal,
// or nil if it is absent (unassigned, or already purged from the head).
func (l *List) FindOrdinal(ord Ordinal) *Descriptor {
	if ord == None {
		return nil
	}
	if i := l.Search(ord); i < len(l.Entries) && l.Entries[i].Ordinal == ord {
		return &l.Entries[i]
	}
	return nil
}

// Ack records that process p has received the proposal with ID id.
// It reports whether the descriptor was found.
func (l *List) Ack(id ProposalID, p model.ProcessID) bool {
	if d := l.Find(id); d != nil {
		d.Acks.Add(p)
		return true
	}
	return false
}

// MergeAcks unions acknowledgement bits from another view of the same
// log. Only descriptors present in both lists are merged; ordinal
// mismatches for the same proposal ID indicate divergent logs and panic.
// Views of one log hold a proposal at the same ordinal, so the lookup is
// by ordinal; the scan by ID only runs for a descriptor the ordinal does
// not match, which is the divergent (or truncated-here) case.
func (l *List) MergeAcks(other *List) {
	for i := range other.Entries {
		od := &other.Entries[i]
		if od.Kind != UpdateDesc {
			continue
		}
		d := l.FindOrdinal(od.Ordinal)
		if d == nil || d.Kind != UpdateDesc || d.ID != od.ID {
			if d = l.Find(od.ID); d == nil {
				continue
			}
			panic(fmt.Sprintf("oal: divergent ordinal for %v: %d vs %d", od.ID, d.Ordinal, od.Ordinal))
		}
		d.Acks = d.Acks.Union(od.Acks)
		if od.Undeliverable {
			d.Undeliverable = true
		}
	}
}

// MarkUndeliverable sets the undeliverable flag on the descriptor with
// proposal ID id, reporting whether it was found.
func (l *List) MarkUndeliverable(id ProposalID) bool {
	if d := l.Find(id); d != nil && d.Kind == UpdateDesc {
		d.Undeliverable = true
		return true
	}
	return false
}

// IsPrefixOf reports whether l is a prefix of longer: every descriptor of
// l appears at the same position in longer with the same ordinal, kind
// and identity (acknowledgement bits and undeliverable marks are views
// and may differ; the paper's prefix relation explicitly ignores them).
func (l *List) IsPrefixOf(longer *List) bool {
	if len(l.Entries) > len(longer.Entries) {
		return false
	}
	for i := range l.Entries {
		a := &l.Entries[i]
		b := longer.FindOrdinal(a.Ordinal)
		if b == nil {
			return false
		}
		if a.Kind != b.Kind {
			return false
		}
		if a.Kind == UpdateDesc && a.ID != b.ID {
			return false
		}
		if a.Kind == MembershipDesc && a.GroupSeq != b.GroupSeq {
			return false
		}
	}
	return true
}

// TruncateStable removes the longest prefix of descriptors for which
// stable reports true. It returns the removed descriptors, which share
// memory with the list as it was: read them before appending to anything
// older. Deciders call this to keep decision messages bounded; the
// predicate typically checks "acknowledged by all members and delivered
// everywhere" or "undeliverable mark reached the head" (§4.3). The head
// is cut off, not shifted out, so the cost is the removed prefix, not the
// list.
func (l *List) TruncateStable(stable func(*Descriptor) bool) []Descriptor {
	cut := 0
	for cut < len(l.Entries) && stable(&l.Entries[cut]) {
		cut++
	}
	removed := l.Entries[:cut:cut]
	l.Entries = l.Entries[cut:]
	return removed
}

// Clone deep-copies the list.
func (l *List) Clone() *List {
	out := &List{Next: l.Next, Entries: make([]Descriptor, len(l.Entries))}
	for i := range l.Entries {
		out.Entries[i] = l.Entries[i].Clone()
	}
	out.norm()
	return out
}

// Equal reports structural equality (including acks and marks).
func (l *List) Equal(o *List) bool {
	if l.HighestOrdinal() != o.HighestOrdinal() || len(l.Entries) != len(o.Entries) {
		return false
	}
	for i := range l.Entries {
		a, b := l.Entries[i], o.Entries[i]
		if a.Kind != b.Kind || a.Ordinal != b.Ordinal || a.ID != b.ID ||
			a.Sem != b.Sem || a.HDO != b.HDO || a.Acks != b.Acks ||
			a.Undeliverable != b.Undeliverable || a.SendTS != b.SendTS ||
			a.StableTS != b.StableTS ||
			a.GroupSeq != b.GroupSeq || !slices.Equal(a.Members, b.Members) {
			return false
		}
	}
	return true
}

func (l *List) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oal(next=%d", l.Next)
	for i := range l.Entries {
		b.WriteByte(' ')
		b.WriteString(l.Entries[i].String())
	}
	b.WriteByte(')')
	return b.String()
}
