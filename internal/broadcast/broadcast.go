// Package broadcast implements the timewheel atomic broadcast protocol
// (Mishra, Fetzer & Cristian 1997), the layer above the membership
// service in the timewheel stack.
//
// Any member may broadcast an update at any time by sending a proposal
// message. A rotating decider periodically sends decision messages whose
// ordering-and-acknowledgement list (oal) assigns unique ordinals to
// updates and membership changes, establishes stability, and detects
// message losses. The service offers three ordering semantics (unordered,
// total, time) and three atomicity semantics (weak, strong, strict),
// selectable per proposal.
//
// Delivery conditions implemented here (the paper's "atomicity, order,
// and general" conditions, concretised):
//
//   - weak atomicity + unordered: deliver on receipt. These are the only
//     updates that can be delivered before an ordinal is assigned; they
//     populate the dpd (delivered proposal descriptors) field used at
//     view changes.
//   - weak atomicity + total/time order: deliver once ordered, in order.
//   - strong atomicity: deliver only after the update and every update it
//     may depend on (ordinal <= hdo) is acknowledged by a majority.
//   - strict atomicity: as strong, with acknowledgement by all members.
//   - total order: ordinal order among total-ordered updates. Deciders
//     assign ordinals per proposer in contiguous sequence order, so
//     ordinal order preserves per-sender FIFO.
//   - time order: synchronized-send-timestamp order among time-ordered
//     updates, releasable once a decision with send timestamp at least
//     delta+epsilon newer exists (any timely proposal sent earlier would
//     already have been ordered).
//
// Acknowledgements propagate through decider rotation: each member stamps
// its own ack bits into the oal when it holds the decider role, so after
// one full rotation every member's receipts are visible to all.
package broadcast

import (
	"fmt"
	"slices"
	"sort"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Delivery is one update handed to the application.
type Delivery struct {
	ID      oal.ProposalID
	Payload []byte
	// Ordinal is the update's unique number, or oal.None when the update
	// was delivered before ordering (weak/unordered fast path).
	Ordinal oal.Ordinal
	Sem     oal.Semantics
	SendTS  model.Time
}

// Outcome reports the fate of a locally proposed update — the timewheel
// broadcast's termination semantic: the proposer learns, within a
// bounded time, whether its update was delivered here or abandoned
// (e.g. purged at a view change, or still undeliverable when the
// termination window closed).
type Outcome struct {
	ID        oal.ProposalID
	Delivered bool
	At        model.Time
}

// Config wires the broadcast service to its application.
type Config struct {
	// OnDeliver receives updates satisfying their delivery conditions.
	OnDeliver func(Delivery)
	// Snapshot returns the application state for join-time transfer.
	Snapshot func() []byte
	// Install replaces the application state from a transferred
	// snapshot.
	Install func([]byte)
	// TerminationAfter arms the termination semantic when positive:
	// OnOutcome fires exactly once per local proposal — on local
	// delivery, or when the window expires undelivered.
	TerminationAfter model.Duration
	// OnOutcome receives termination reports.
	OnOutcome func(Outcome)
	// OnLineage fires when this process adopts a new ordinal lineage
	// (a group formation restarted the ordinal space). A durable node
	// uses it to mark the boundary in its log and drop its now
	// incomparable replay tail.
	OnLineage func(model.GroupSeq)
	// ReplaySince, when set, serves rejoin deltas from this process's
	// durable log: it returns every logged delivery a member with
	// contiguous coverage `since` still needs, in delivery order, and
	// whether the log reaches back that far. Unset (volatile process),
	// every state transfer is a full one.
	ReplaySince func(since oal.Ordinal) ([]wire.ReplayEntry, bool)
	// FullOALEvery counts only by its sign. Negative disables delta
	// encoding entirely: every decision and no-decision ships the full
	// oal. Zero or positive leaves deltas on, and a full oal goes out
	// only when something forces one (an election, a membership change,
	// a peer's OALReq), never on a cadence: a positive value is not an
	// interval.
	FullOALEvery int
}

// Stats counts broadcast-layer activity.
type Stats struct {
	Proposed      uint64
	Delivered     uint64
	DeliveredFast uint64 // weak/unordered pre-ordinal deliveries
	Purged        uint64 // updates marked undeliverable locally
	NacksNeeded   uint64
	Retransmits   uint64
	StateFulls    uint64 // full state transfers built for joiners
	StateDeltas   uint64 // delta (replay) state transfers built
	ReplayApplied uint64 // deliveries applied here from a rejoin delta

	DecisionsFull  uint64 // decisions built carrying the full oal
	DecisionsDelta uint64 // decisions built delta-encoded
	DeltaMisses    uint64 // received deltas whose baseline didn't match
	OALFullServed  uint64 // OALFull baseline replies served
}

// Broadcast is one member's broadcast-protocol state. Not safe for
// concurrent use; drive it from the owning node's event loop.
type Broadcast struct {
	self   model.ProcessID
	params model.Params
	cfg    Config

	group model.Group

	// view is this process's current view of the oal, derived from the
	// freshest decision seen plus locally updated ack bits. meta runs
	// parallel to view.Entries (see index.go).
	view      *oal.List
	meta      []entryMeta
	lastDecTS model.Time
	// lastOrdTS is the send timestamp of the freshest decision sent or
	// adopted here that assigned an ordinal; decNext is the view's next
	// ordinal as of the freshest decision, which is how the next one
	// tells whether it assigned any, and how many. slotUsed sums those
	// counts over the decisions stamped in lastOrdTS's ordering slot
	// (see OrderingRoom).
	lastOrdTS model.Time
	decNext   oal.Ordinal
	slotUsed  int

	// baseRing records the freshest few decisions built or adopted here,
	// oldest first — the cluster-shared baselines delta-encoded decisions
	// and no-decision views are keyed against (see delta.go). Their
	// content is not copied: it is the working view minus the local
	// changes meta tracks. Empty when no baseline is held (fresh start,
	// lineage change).
	baseRing []baseline
	// pristineLost is set while the view holds local changes that no
	// decision has carried yet and that meta cannot undo (an election's
	// reconciliation, an announced group): until this process ships its
	// next — full — decision it has no baseline to resolve, serve or
	// encode a delta against.
	pristineLost bool
	// deltaWin is the current baseline-ring capacity: how far back a
	// delta may reach. It adapts to the observed decision-loss rate in
	// [minDeltaWindow, maxDeltaWindow] — every baseline repair (an
	// OALReq from a peer, or a delta received here with no qualifying
	// baseline) widens it, and a long clean streak shrinks it back
	// (see delta.go).
	deltaWin   int
	deltaClean int // baselines retained since the last repair
	// deltaOff disables delta encoding (Config.FullOALEvery < 0);
	// forceFull makes the next decision ship the full oal.
	deltaOff  bool
	forceFull bool

	// ids holds, per proposer and sequence, the proposal buffer (bodies
	// received), the ordinal the view gives each update, the delivered
	// marks and the ordered-sequence cursors (see ids.go).
	ids idTable
	// dpd lists updates delivered before receiving an ordinal.
	dpd []oal.ProposalID

	// nextSeq numbers this process's own proposals. It is seeded from
	// the synchronized clock at start (member.Machine does so) so that a
	// crash-recovered or rejoined process — which loses all volatile
	// state — can never reuse a sequence number from an earlier life.
	nextSeq uint64

	// gapSince tracks, per proposer, when a decider first saw that
	// proposer's smallest pending sequence blocked by a gap. After one
	// cycle the gap is declared abandoned and ordering jumps past it
	// (the missing updates can no longer be delivered FIFO-consistently
	// and are rejected as stale everywhere).
	gapSince map[model.ProcessID]model.Time

	// snapshotCovered is the highest ordinal a join-time snapshot
	// covers at this member: updates at or below it are already
	// reflected in the installed application state and must never be
	// re-delivered, even from a less-truncated oal adopted later.
	snapshotCovered oal.Ordinal

	// lineage identifies the ordinal space this process's coverage
	// belongs to: the sequence number of the group formation that
	// (re)started ordinals at 1. Coverage and ordinals are only
	// comparable within one lineage; adopting a decision from another
	// lineage invalidates snapshotCovered (see adoptLineage).
	lineage model.GroupSeq

	// deferApp suppresses application hand-off while a recovered
	// joiner's state transfer is outstanding. A joining process adopts
	// live decisions (to keep the oal warm for admission), but a
	// process that advertised recovered coverage may be served a replay
	// *delta* instead of a full install: delivering adopted entries
	// before that delta arrives would both apply them out of order
	// relative to the replayed prefix and inflate the live coverage the
	// next join re-advertises. While set, entries stay undelivered (and
	// unmarked) in the buffer; ApplyState clears the flag and flushes.
	// Volatile joiners never set it — a full transfer rebases them.
	deferApp bool

	// maxSettledTimeTS is the largest send timestamp of any time-ordered
	// update that has become deliverable (its settle window passed while
	// it was ordered). A time-ordered proposal ordered later with an
	// older timestamp is a straggler — delivering it would invert time
	// order — so deciders mark it undeliverable at ordering time.
	maxSettledTimeTS model.Time

	// suppressUntil implements the §4.3 election-time undeliverable
	// marks: proposals from a sender p has asked to remove are neither
	// delivered nor acknowledged until the mark expires (one cycle).
	suppressUntil map[model.ProcessID]model.Time

	// nackAt rate-limits retransmission requests per proposal.
	nackAt map[oal.ProposalID]model.Time

	// termination tracks the deadline of each own undetermined proposal.
	termination map[oal.ProposalID]model.Time

	// Delivery and stability bookkeeping over the view (see index.go).
	groupMask    oal.AckSet
	fastQ        []oal.ProposalID
	bodiless     []oal.Ordinal
	ackDebt      []oal.Ordinal
	ownAcked     []oal.Ordinal
	releaseQ     []settleMark
	dcur         oal.Ordinal
	ackFail      [2]oal.Ordinal
	stableCur    oal.Ordinal
	orderedDirty bool
	fifoScratch  []fifoBlock

	// deliverRef, when set, replaces tryDeliver. Tests install the
	// scan-everything reference there to compare delivery sequences.
	deliverRef func(*Broadcast, model.Time)

	stats Stats
}

// New creates the broadcast state for process self.
func New(self model.ProcessID, params model.Params, cfg Config) *Broadcast {
	if cfg.OnDeliver == nil {
		cfg.OnDeliver = func(Delivery) {}
	}
	if cfg.Snapshot == nil {
		cfg.Snapshot = func() []byte { return nil }
	}
	if cfg.Install == nil {
		cfg.Install = func([]byte) {}
	}
	return &Broadcast{
		self:          self,
		params:        params,
		cfg:           cfg,
		deltaOff:      cfg.FullOALEvery < 0,
		deltaWin:      minDeltaWindow,
		view:          oal.NewList(),
		suppressUntil: make(map[model.ProcessID]model.Time),
		nackAt:        make(map[oal.ProposalID]model.Time),
		termination:   make(map[oal.ProposalID]model.Time),
		gapSince:      make(map[model.ProcessID]model.Time),
	}
}

// SeedSeq raises the own-proposal sequence floor; callers pass the
// synchronized clock (microseconds), which is strictly larger than any
// value an earlier incarnation of this process can have used.
func (b *Broadcast) SeedSeq(v uint64) {
	if v > b.nextSeq {
		b.nextSeq = v
	}
}

// DropPendingFrom discards unordered pending bodies from the given
// departed proposers (§4.3: proposals of removed members that were never
// ordered are purged — at every member, so no later decider resurrects
// them with a stale ordering).
func (b *Broadcast) DropPendingFrom(departed []model.ProcessID) {
	for _, q := range departed {
		pr := b.ids.of(q)
		if pr == nil {
			continue
		}
		for _, seq := range slices.Clone(pr.pend) {
			id := oal.ProposalID{Proposer: q, Seq: seq}
			if !b.ids.delivered(id) {
				b.ids.dropBody(id)
				b.stats.Purged++
			}
		}
	}
}

// Reset clears all log, buffer and delivery state, as when an excluded
// process restarts the join protocol: its history may have diverged from
// the majority's, and the join-time state transfer re-establishes it.
// Configuration and identity are retained. Undetermined local proposals
// are reported abandoned — their fate in the majority's history is
// unknowable from here, which is exactly what the termination semantic
// exists to surface.
func (b *Broadcast) Reset() {
	pending := make([]oal.ProposalID, 0, len(b.termination))
	for id := range b.termination {
		pending = append(pending, id)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Seq < pending[j].Seq })
	cfg := b.cfg
	stats := b.stats // counters are cumulative across rejoins
	fresh := New(b.self, b.params, cfg)
	fresh.deliverRef = b.deliverRef
	*b = *fresh
	b.stats = stats
	if cfg.OnOutcome != nil {
		for _, id := range pending {
			cfg.OnOutcome(Outcome{ID: id, Delivered: false})
		}
	}
}

// Group returns the current group as known to the broadcast layer.
func (b *Broadcast) Group() model.Group { return b.group }

// SetGroup installs the membership view the delivery conditions evaluate
// against (majority/all-ack checks).
func (b *Broadcast) SetGroup(g model.Group) {
	if !slices.Equal(b.group.Members, g.Members) {
		// Acknowledgement counts are taken within the group: the ack
		// watermarks start over, and updates may have become deliverable.
		b.groupMask = oal.MaskOf(g)
		b.ackFail = [2]oal.Ordinal{}
		b.orderedDirty = true
	}
	b.group = g.Clone()
}

// LastDecisionTS returns the send timestamp of the freshest decision this
// process has seen (or sent).
func (b *Broadcast) LastDecisionTS() model.Time { return b.lastDecTS }

// LastOrderingTS returns the send timestamp of the freshest decision this
// process has seen (or sent) that assigned an ordinal.
func (b *Broadcast) LastOrderingTS() model.Time { return b.lastOrdTS }

// noteDecided is called with the send timestamp of each decision built or
// adopted here: it is the freshest ordering decision when the view now
// holds an ordinal the previous decision's did not, and what it assigned
// counts against the budget of its ordering slot.
func (b *Broadcast) noteDecided(ts model.Time) {
	if b.view.Next != b.decNext {
		slot, _ := b.orderingSlot(ts)
		if last, _ := b.orderingSlot(b.lastOrdTS); slot != last {
			b.slotUsed = 0
		}
		if b.view.Next > b.decNext {
			// A first adoption (decNext 0) or an election's appends count
			// at most one whole budget: what the slot has left is nothing.
			b.slotUsed += int(min(b.view.Next-b.decNext, MaxOrdinalsPerDecision))
		}
		b.lastOrdTS, b.decNext = ts, b.view.Next
	}
	b.dropReleased()
}

// Stats returns a copy of the layer's counters.
func (b *Broadcast) Stats() Stats { return b.stats }

// Delivered reports whether the update with the given ID was handed to
// the application and its descriptor is still retained (the mark goes
// when the descriptor is truncated).
func (b *Broadcast) Delivered(id oal.ProposalID) bool { return b.ids.delivered(id) }

// HighestOrdinal returns the highest ordinal in this process's view.
func (b *Broadcast) HighestOrdinal() oal.Ordinal { return b.view.HighestOrdinal() }

// UndeliverableIDs returns the proposal IDs currently marked
// undeliverable in this process's view (§4.3 purge marks).
func (b *Broadcast) UndeliverableIDs() []oal.ProposalID {
	var out []oal.ProposalID
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && d.Undeliverable {
			out = append(out, d.ID)
		}
	}
	return out
}

// CurrentView returns this process's view of the oal: the freshest
// decision's oal with the process's own acknowledgment bits applied
// (paper §4.3: "p uses this oal from m and updates the acknowledgment
// bits"). The returned list is a deep copy.
func (b *Broadcast) CurrentView() *oal.List {
	b.refreshOwnAcks()
	return b.view.Clone()
}

// DPD returns the delivered proposal descriptors: updates this process
// has delivered that still have no ordinal (paper §4.3 field dpd).
func (b *Broadcast) DPD() []oal.ProposalID {
	b.compactDPD()
	return slices.Clone(b.dpd)
}

// compactDPD drops dpd entries that have since been ordered or purged.
func (b *Broadcast) compactDPD() {
	if len(b.dpd) == 0 {
		return
	}
	out := b.dpd[:0]
	for _, id := range b.dpd {
		if b.ids.ordinal(id) != oal.None {
			continue // ordered: no longer "undefined ordinal"
		}
		out = append(out, id)
	}
	b.dpd = out
}

// dropOrderedDPD drops the dpd entries, and their bodies, that a
// join-time transfer shows the group has ordered already: ones below the
// transferred ordering cursors the view does not hold. A joiner delivers
// weak/unordered updates on receipt while it waits for admission, and
// the group may order and truncate such an update before the transfer
// arrives. Its history then covers the update (delivered everywhere, or
// abandoned as stale), so reporting it as delivered-but-unordered at the
// next election would have the decider order it a second time — and
// every member whose delivered mark went with the truncation would
// deliver it again.
func (b *Broadcast) dropOrderedDPD() {
	b.compactDPD()
	keep := b.dpd[:0]
	for _, id := range b.dpd {
		if id.Seq <= b.ids.orderedSeq(id.Proposer) {
			b.ids.dropBody(id)
			continue
		}
		keep = append(keep, id)
	}
	b.dpd = keep
}

// Propose creates, registers and returns a proposal for payload with the
// given semantics, stamped with send timestamp now (the caller's
// synchronized clock, monotonic per process). The caller broadcasts the
// returned message; the local copy is processed immediately (the network
// does not loop back).
func (b *Broadcast) Propose(now model.Time, payload []byte, sem oal.Semantics) *wire.Proposal {
	b.nextSeq++
	p := &wire.Proposal{
		Header:  wire.Header{From: b.self, SendTS: now},
		ID:      oal.ProposalID{Proposer: b.self, Seq: b.nextSeq},
		Sem:     sem,
		HDO:     b.view.HighestOrdinal(),
		Payload: slices.Clone(payload),
	}
	b.stats.Proposed++
	if b.cfg.TerminationAfter > 0 && b.cfg.OnOutcome != nil {
		b.termination[p.ID] = now.Add(b.cfg.TerminationAfter)
	}
	b.OnProposal(now, p)
	return p
}

// CheckTermination sweeps the termination windows of this process's own
// proposals at synchronized time now, reporting any that expired
// undelivered. Drivers call it periodically (the member machine does so
// on every slot tick); delivery reports fire immediately from the
// delivery path.
func (b *Broadcast) CheckTermination(now model.Time) {
	for id, deadline := range b.termination {
		if b.ids.delivered(id) {
			// Delivered: the delivery path already reported.
			delete(b.termination, id)
			continue
		}
		if now > deadline {
			delete(b.termination, id)
			b.cfg.OnOutcome(Outcome{ID: id, Delivered: false, At: now})
		}
	}
}

// OnProposal ingests a proposal body (remote or local).
func (b *Broadcast) OnProposal(now model.Time, p *wire.Proposal) {
	if b.ids.body(p.ID) != nil {
		// Duplicates carry no new information, but a delivery retry is
		// cheap and covers conditions that became true since (e.g. an
		// expired suppression mark).
		b.tryDeliver(now)
		return
	}
	pos := b.posOf(p.ID)
	if pos < 0 && p.ID.Seq <= b.ids.orderedSeq(p.ID.Proposer) {
		// Stale: ordering for this proposer has moved past the body's
		// sequence (the gap was declared abandoned, or the update was
		// delivered and truncated long ago). Delivering it now would
		// invert FIFO; every member rejects it identically.
		return
	}
	if pos >= 0 && b.view.Entries[pos].Undeliverable {
		return // purged: nobody may deliver it, so nobody needs the body
	}
	cp := *p
	cp.Payload = slices.Clone(p.Payload)
	b.ids.setBody(&cp) // pending until the view orders it
	delete(b.nackAt, p.ID)
	if p.ID.Proposer == b.self && p.ID.Seq > b.nextSeq {
		// Seeing our own pre-crash proposals after a rejoin: never
		// reuse their sequence numbers.
		b.nextSeq = p.ID.Seq
	}
	if cp.Sem.Order == oal.Unordered && cp.Sem.Atomicity == oal.WeakAtomicity && !b.ids.delivered(p.ID) {
		b.queueFast(p.ID)
	}
	if pos >= 0 {
		// The body of an ordered update: acknowledge it (later, when its
		// sender is under an election-time mark), and look again at what
		// the view can deliver.
		if b.senderSuppressed(p.ID.Proposer, now) {
			b.ackDebt = append(b.ackDebt, b.view.Entries[pos].Ordinal)
		} else {
			b.stampOwnAck(pos)
		}
		b.orderedDirty = true
	}
	b.tryDeliver(now)
}

// senderSuppressed reports whether proposals from q are currently under
// an election-time undeliverable mark.
func (b *Broadcast) senderSuppressed(q model.ProcessID, now model.Time) bool {
	until, ok := b.suppressUntil[q]
	if !ok {
		return false
	}
	if now >= until {
		delete(b.suppressUntil, q)
		b.orderedDirty = true // q's ordered updates may have become deliverable
		return false
	}
	return true
}

// SuppressSender installs an election-time undeliverable mark on sender
// q: proposals from q that this process has not yet received — including
// ones arriving later — are neither delivered nor acknowledged until the
// mark expires one cycle later (§4.3). It is called when this process
// sends a no-decision or reconfiguration message requesting q's removal.
func (b *Broadcast) SuppressSender(q model.ProcessID, now model.Time) {
	b.suppressUntil[q] = now.Add(b.params.CycleLen())
	b.stats.Purged++
}

// AdoptDecision ingests a decision message, full or delta-encoded. It
// returns whether the decision was fresh (newer than anything seen), and
// the IDs of ordered updates whose bodies this process is missing and
// should request via a nack (rate-limited to one request per proposal
// per D). dec is only read.
func (b *Broadcast) AdoptDecision(now model.Time, dec *wire.Decision) (adopted bool, missing []oal.ProposalID) {
	if !b.DecisionResolvable(dec) {
		return false, nil
	}
	if dec.SendTS <= b.lastDecTS {
		return false, nil
	}
	if dec.OAL.Next < b.view.Next && dec.Lineage <= b.lineage {
		// The decision's log is shorter than ours: adopting it would
		// regress ordinals. Only a stale decider produces this. (A newer
		// lineage restarted the ordinal space: its length is no measure.)
		return false, nil
	}
	advanced := false
	if dec.BaseTS != 0 && b.deltaAppliesInPlace(dec) {
		// The common case: work over the entries the decision changed.
		advanced = b.applyDelta(now, dec)
	} else {
		incoming := dec.OAL.Clone()
		if dec.BaseTS != 0 {
			// A delta that does not line up with the view entry for
			// entry: rebuild the sender's list the general way.
			incoming = oal.NewList()
			if !oal.ReconstructInto(incoming, b.pristineList(), dec.TruncBelow, &dec.OAL) {
				return false, nil
			}
		}
		sameSpace := dec.Lineage == b.lineage
		if sameSpace {
			b.deliverTruncated(now, incoming)
		} else {
			// The decision belongs to another ordinal space; our retained
			// view cannot be compared against its oal, so the truncation
			// sweep would be meaningless. (On first adoption the view is
			// empty and the sweep is a no-op anyway.)
			b.adoptLineage(dec.Lineage)
		}
		b.lastDecTS = dec.SendTS
		b.replaceView(incoming, dec.SendTS, sameSpace)
		advanced = b.syncOrderedSeq(0)
	}
	if advanced {
		b.dropStalePending()
	}
	b.noteDecided(dec.SendTS)
	b.syncSettledTimeTS()
	b.compactDPD()
	b.pushBaseline(dec.SendTS)

	// Detect losses: ordered updates whose bodies we lack.
	missing = b.missingBodies(now)
	if len(missing) > 0 {
		b.stats.NacksNeeded += uint64(len(missing))
	}

	b.orderedDirty = true
	b.tryDeliver(now)
	return true, missing
}

// deliverTruncated delivers any update the incoming oal has truncated
// away before this process managed to deliver it. Truncation means the
// update was stable — fully acknowledged by the group and a full cycle
// old — so every global delivery condition is already met; only our
// local hand-off is outstanding, and the body is necessarily in our
// buffer (our own acknowledgement required it and undelivered bodies are
// never collected).
func (b *Broadcast) deliverTruncated(now model.Time, incoming *oal.List) {
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if incoming.FindOrdinal(d.Ordinal) != nil || d.Ordinal > incoming.HighestOrdinal() {
			continue // retained, or beyond the incoming log: not truncated
		}
		b.handOffTruncated(now, d)
	}
}

// handOffTruncated is deliverTruncated's step for one descriptor the
// incoming oal no longer holds.
func (b *Broadcast) handOffTruncated(now model.Time, d *oal.Descriptor) {
	if d.Kind != oal.UpdateDesc || d.Undeliverable {
		return
	}
	r := b.ids.rec(d.ID)
	if r == nil || r.delivered || r.body == nil {
		return
	}
	if d.Ordinal <= b.snapshotCovered {
		return // already reflected in the join-time snapshot
	}
	if b.deferApp {
		// The outstanding transfer covers every stable-truncated ordinal
		// (they are below the serving member's coverage), so leave the
		// update to the replay or the transfer's delivered-set.
		return
	}
	b.deliver(r.body, d.Ordinal, now)
}

// syncOrderedSeq raises the per-proposer highest ordered sequence from
// the view's entries at positions from.. (monotonically: truncation never
// lowers it), and reports whether any cursor moved.
func (b *Broadcast) syncOrderedSeq(from int) (advanced bool) {
	for i := from; i < len(b.view.Entries); i++ {
		d := &b.view.Entries[i]
		if d.Kind != oal.UpdateDesc {
			continue
		}
		if b.ids.raiseOrdered(d.ID.Proposer, d.ID.Seq) {
			advanced = true
		}
		if d.ID.Proposer == b.self && d.ID.Seq > b.nextSeq {
			b.nextSeq = d.ID.Seq
		}
	}
	return advanced
}

// dropStalePending drops pending bodies ordering has moved past: they are
// stale everywhere (see OnProposal). Bodies delivered on the fast path
// stay — they are what dpd hands the next election.
func (b *Broadcast) dropStalePending() {
	for _, pr := range b.ids.procs {
		n, _ := slices.BinarySearch(pr.pend, pr.ordered+1)
		for _, seq := range slices.Clone(pr.pend[:n]) {
			if id := (oal.ProposalID{Proposer: pr.proposer, Seq: seq}); !slices.Contains(b.dpd, id) {
				b.ids.dropBody(id)
			}
		}
	}
}

// syncSettledTimeTS advances the settled time-order high-water mark from
// the current view (monotonic: truncation never lowers it). Descriptors
// below the delivery cursor are delivered or purged: the delivered ones
// were counted when they settled, which is what let them be delivered.
func (b *Broadcast) syncSettledTimeTS() {
	settleBound := b.lastDecTS - model.Time(b.params.Delta+b.params.Epsilon)
	for i := b.view.Search(b.dcur); i < len(b.view.Entries); i++ {
		d := &b.view.Entries[i]
		if d.Kind == oal.UpdateDesc && d.Sem.Order == oal.TimeOrder && !d.Undeliverable &&
			d.SendTS <= settleBound && d.SendTS > b.maxSettledTimeTS {
			b.maxSettledTimeTS = d.SendTS
		}
	}
}

// missingBodies lists the ordered, deliverable, undelivered updates whose
// bodies this process lacks and has not asked for within the last D.
func (b *Broadcast) missingBodies(now model.Time) (missing []oal.ProposalID) {
	keep := b.bodiless[:0]
	for _, ord := range b.bodiless {
		d := b.view.FindOrdinal(ord)
		if d == nil || d.Kind != oal.UpdateDesc || d.Undeliverable {
			continue
		}
		if r := b.ids.rec(d.ID); r != nil && (r.delivered || r.body != nil) {
			continue
		}
		keep = append(keep, ord)
		if at, ok := b.nackAt[d.ID]; ok && now.Sub(at) < b.params.D {
			continue
		}
		b.nackAt[d.ID] = now
		missing = append(missing, d.ID)
	}
	b.bodiless = keep
	return missing
}

// StillMissing filters ids down to the update bodies this process still
// lacks: not delivered, not buffered, and not marked undeliverable. The
// member layer calls it when a deferred nack comes due — bodies that
// were merely in flight when the decision exposed them have landed by
// then and drop out of the nack.
func (b *Broadcast) StillMissing(ids []oal.ProposalID) []oal.ProposalID {
	var out []oal.ProposalID
	for _, id := range ids {
		if r := b.ids.rec(id); r != nil && (r.delivered || r.body != nil) {
			continue
		}
		if pos := b.posOf(id); pos < 0 || b.view.Entries[pos].Undeliverable {
			continue // truncated away or purged: no longer wanted
		}
		out = append(out, id)
	}
	return out
}

// OnNack returns the proposal bodies this process holds among those
// requested; the caller retransmits them to the requester.
func (b *Broadcast) OnNack(n *wire.Nack) []*wire.Proposal {
	var out []*wire.Proposal
	for _, id := range n.Missing {
		if p := b.ids.body(id); p != nil {
			out = append(out, p)
		}
	}
	b.stats.Retransmits += uint64(len(out))
	return out
}

func (b *Broadcast) String() string {
	bodies, delivered := 0, 0
	for _, r := range b.ids.all() {
		if r.body != nil {
			bodies++
		}
		if r.delivered {
			delivered++
		}
	}
	return fmt.Sprintf("bcast(%v %v view=%d pb=%d delivered=%d)",
		b.self, b.group, b.view.Len(), bodies, delivered)
}
