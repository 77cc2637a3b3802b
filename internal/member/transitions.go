package member

import (
	"slices"

	"timewheel/internal/broadcast"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// OnMessage processes one received protocol message.
func (m *Machine) OnMessage(msg wire.Message) {
	h := msg.Hdr()
	if h.From == m.self {
		return // our own broadcast looped back; ignore
	}
	if msg.Kind().Control() {
		// Duplicate/old control messages are rejected (§4.2) — except
		// that a wrong-suspicion resend must still reach processes that
		// missed the original, which the freshness check permits
		// (they never recorded the original timestamp).
		if !m.fd.RecordControl(h.From, h.SendTS, m.env.Now()) {
			return
		}
	}
	// Accepted: record the receive hop for the cross-node timeline
	// (rejected duplicates never fire — they are not protocol events).
	m.fireWire(WireRecv, msg, h.From)
	switch v := msg.(type) {
	case *wire.Decision:
		m.noteAlive(v.From, v.SendTS, v.Alive)
		m.onDecision(v)
	case *wire.NoDecision:
		m.noteAlive(v.From, v.SendTS, v.Alive)
		m.onNoDecision(v)
	case *wire.Join:
		m.onJoin(v)
	case *wire.Reconfig:
		m.noteAlive(v.From, v.SendTS, v.Alive)
		m.onReconfig(v)
	case *wire.Suspicion:
		m.onSuspicion(v)
	case *wire.Refute:
		m.onRefute(v)
	case *wire.Proposal:
		// Application traffic carries the same send timestamps as
		// control messages — feed the adaptive delay estimator (no-op
		// in static mode) before handing the proposal to the broadcast
		// layer. A sample that shrinks the expected sender's bound
		// tightens the armed surveillance deadline via the detector's
		// OnDeadlineTighten callback (wired in New).
		m.fd.RecordAppDelay(v.From, v.SendTS, m.env.Now())
		m.bc.OnProposal(m.env.Now(), v)
		m.decideIfOrderable()
	case *wire.Nack:
		for _, body := range m.bc.OnNack(v) {
			// Retransmit with ourselves as the datagram source: the
			// original proposer may be crashed, and the update's
			// identity lives in its ID, not the header.
			cp := *body
			cp.From = m.self
			m.unicast(v.From, &cp)
		}
	case *wire.State:
		if m.needState || m.state == StateJoin || !m.haveGroup || m.bc.HighestOrdinal() == 0 {
			if m.haveGroup && v.GroupSeq < m.group.Seq {
				return // stale transfer predating our current group
			}
			m.bc.ApplyState(m.env.Now(), v)
			m.appliedStateSeq = v.GroupSeq
			m.needState = false
		}
	case *wire.OALReq:
		// A peer can't resolve our deltas: serve it the baseline, and
		// ship the next decision full in case others lost it too.
		m.bc.ForceFullOAL()
		if of := m.bc.ServeFullOAL(m.sendTS()); of != nil {
			m.unicast(v.From, of)
		}
	case *wire.OALFull:
		m.onOALFull(v)
	}
}

// onOALFull applies a served baseline: newer than anything seen here it
// doubles as a full decision (content-wise it is one) and may surface
// missing bodies to nack; either way a freshly installed baseline lets
// buffered delta no-decisions resolve.
func (m *Machine) onOALFull(of *wire.OALFull) {
	adopted, missing := m.bc.InstallFullOAL(m.env.Now(), of)
	// The nack continues the served baseline's causal chain: the
	// losses it repairs belong to that decision's round.
	m.queueNack(missing, m.causalOf(of.Header))
	if adopted {
		m.lastCausal = m.causalOf(of.Header)
		for _, nd := range m.pendingND {
			m.bc.ResolveNoDecisionDelta(nd)
		}
	}
}

// nackEntry is one deferred missing-body nack: the IDs a decision (or
// served baseline) exposed as missing, the causal context of that
// round, and when the Delta grace runs out.
type nackEntry struct {
	due model.Time
	ctx wire.Causal
	ids []oal.ProposalID
}

// queueNack defers a missing-body nack by one delay bound. The body of
// an update ordered by a just-received decision is usually not lost —
// it is in flight, broadcast by its proposer concurrently with the
// decision that covers it — so nacking immediately turns delivery
// jitter into a group-wide nack/retransmission round for nothing. Any
// timely body lands within Delta of the decision; what is still
// missing when the grace expires is nacked then. The grace is well
// inside the D-scale repair budget the rate limits assume.
func (m *Machine) queueNack(missing []oal.ProposalID, ctx wire.Causal) {
	if len(missing) == 0 {
		return
	}
	due := m.env.Now().Add(m.params.Delta)
	m.nackQ = append(m.nackQ, nackEntry{due: due, ctx: ctx, ids: missing})
	if len(m.nackQ) == 1 {
		m.env.SetTimer(TimerNack, due)
	}
}

// onNackTimer sends the due deferred nacks for bodies still missing and
// re-arms for the queue head.
func (m *Machine) onNackTimer() {
	now := m.env.Now()
	for len(m.nackQ) > 0 && m.nackQ[0].due <= now {
		e := m.nackQ[0]
		m.nackQ = m.nackQ[1:]
		if still := m.bc.StillMissing(e.ids); len(still) > 0 {
			m.broadcast(&wire.Nack{
				Header:  wire.Header{From: m.self, SendTS: m.sendTS(), Ctx: e.ctx},
				Missing: still,
			})
		}
	}
	if len(m.nackQ) > 0 {
		m.env.SetTimer(TimerNack, m.nackQ[0].due)
	}
}

// requestFullOAL asks `from` for the delta baseline this process is
// missing, at most once per D per target.
func (m *Machine) requestFullOAL(from model.ProcessID) {
	now := m.env.Now()
	if last, ok := m.lastOALReq[from]; ok && now.Sub(last) < m.params.D {
		return
	}
	m.lastOALReq[from] = now
	m.unicast(from, &wire.OALReq{Header: wire.Header{From: m.self, SendTS: m.sendTS()}})
	m.stats.OALReqsSent++
}

// noteAlive records the alive-list piggybacked on a control message. In
// partial-view mode each listed peer is also a gossiped vouch as of the
// message's send timestamp: peers we don't watch directly stay on our
// alive-list through the union. The vouch is trustworthy only because
// outgoing alive-lists carry first-hand evidence alone (DirectAliveList)
// — the sender itself heard p timely within one window of sendTS. Were
// the unioned list re-exported, second-hand vouches would refresh each
// other every cycle and pin a dead peer alive forever. Vouches are also
// filtered to the current membership so an ejected process cannot ride
// alive-lists sent by peers that have not yet ejected it.
func (m *Machine) noteAlive(from model.ProcessID, sendTS model.Time, alive []model.ProcessID) {
	m.lastAlive[from] = model.NewProcessSet(alive...)
	if m.sv != nil && m.haveGroup {
		for _, p := range alive {
			if p != from && m.group.Contains(p) {
				m.fd.RecordGossipAlive(p, sendTS)
			}
		}
	}
}

// OnTimer processes a timer expiry.
func (m *Machine) OnTimer(id TimerID) {
	switch id {
	case TimerExpect:
		m.onExpectTimeout()
	case TimerDecide:
		if m.isDecider {
			m.sendRotationDecision(m.decideKind)
		}
	case TimerSlot:
		m.onOwnSlot()
		m.scheduleSlotTimer()
	case TimerNack:
		m.onNackTimer()
	}
}

// --- Decision handling -------------------------------------------------

func (m *Machine) onDecision(dec *wire.Decision) {
	now := m.env.Now()
	if m.haveGroup && dec.Group.Seq < m.group.Seq && m.state != StateNFailure {
		// A decider that predates our current group (e.g. a wrongly
		// suspected process that has not yet learned it was excluded)
		// while our own rotation is alive: its log lacks our membership
		// descriptor and purge marks — ignore it entirely.
		return
	}
	if !m.bc.DecisionResolvable(dec) {
		// Delta-encoded against a baseline we don't hold (first contact,
		// or we missed the baseline decision): fetch the baseline; the
		// chain re-delivers the content, and surveillance keeps running
		// off whatever control message does arrive timely.
		m.requestFullOAL(dec.From)
		return
	}
	adopted, missing := m.bc.AdoptDecision(now, dec)
	// The nack continues the decision's causal chain: the losses it
	// exposes belong to that round.
	m.queueNack(missing, m.causalOf(dec.Header))
	if !adopted {
		// Older than our log: no state meaning (stale decider or a
		// wrong-suspicion retransmission we already have).
		return
	}
	// Adopting a decision moves this process into its round: subsequent
	// control messages continue its causal chain.
	m.lastCausal = m.causalOf(dec.Header)

	m.bc.CheckTermination(now)

	// Fresh decisions are authoritative: only deciders send them, and
	// the elections guarantee at most one decider.
	if m.state == StateJoin {
		// An admission answers a join of this stay in the join state, so it
		// was sent after the stay began. A decision sent before that (still
		// queued when a stalled process excluded itself, say) lists this
		// process only because its sender had not yet learned it left:
		// taking it as an admission would put the process back into a
		// group that is busy removing it, and cost it the warm rejoin.
		if dec.Group.Contains(m.self) && dec.SendTS.Add(m.params.Epsilon) >= m.joinSince {
			m.joinCompleted(dec)
		}
		return
	}

	// Group sequence numbers are only comparable along one decision
	// chain; what arbitrates between chains is the log, and AdoptDecision
	// accepted this one (newer timestamp, no shorter). Reaching here with
	// a *lower* group seq means we are in n-failure — our own chain is
	// dead (e.g. a racing admission view nobody completed) while the
	// sender's rotation lives: follow the live chain — install its group
	// if we are a member, rejoin if not.
	if m.haveGroup && dec.Group.Seq < m.group.Seq {
		if dec.Group.Contains(m.self) {
			m.installGroup(dec.Group)
		} else {
			m.resetForJoin()
			return
		}
	}

	// Membership change?
	if m.haveGroup && dec.Group.Seq >= m.group.Seq && !dec.Group.Contains(m.self) {
		m.handleExclusion(dec)
		return
	}
	if m.haveGroup && dec.Group.Seq > m.group.Seq {
		var departed []model.ProcessID
		for _, q := range m.group.Members {
			if !dec.Group.Contains(q) {
				departed = append(departed, q)
			}
		}
		if len(departed) > 0 {
			// §4.3: the departed members' never-ordered proposals are
			// purged at every member, so no later decider resurrects
			// them with a stale ordering.
			m.bc.DropPendingFrom(departed)
		}
		m.installGroup(dec.Group)
	}

	if m.state == State1FailureReceive && dec.From == m.suspect {
		// The suspected process is alive after all: mask the false
		// alarm (paper: 1-failure-receive --D(suspect)--> wrong-
		// suspicion). Keep the suspect for the ring bookkeeping.
		m.setState(StateWrongSuspicion)
		m.expectAfter(dec.From, dec.SendTS)
		return
	}

	if m.isLate(dec.From, dec.SendTS, now) {
		// Fail-awareness (paper §3): a late message is a performance
		// failure of its sender and is rejected for protocol-control
		// purposes — its log content was absorbed above, but it hands
		// the decider role to no one and resets no surveillance. If the
		// sender is chronically slow, the armed deadlines exclude it; a
		// masked false alarm recovers through the wrong-suspicion
		// takeover instead. This is what makes two concurrent
		// decision-producing deciders impossible even when a stale
		// handoff races a takeover.
		return
	}

	// Any other fresh, timely decision returns the process to
	// failure-free operation and rolls the rotation forward.
	m.setState(StateFailureFree)
	m.clearElection()
	m.setDecider(false)
	m.excluded = false
	next := m.group.Successor(dec.From)
	if next == m.self {
		m.becomeDecider(dec.SendTS)
	} else {
		m.expectAfter(dec.From, dec.SendTS)
	}
}

// isLate applies the timed-asynchronous timeliness test: a message whose
// transmission took more than delta (plus the clock deviation and
// scheduling slack) has suffered a performance failure. The bound is
// per-sender: static mode uses the model's global Delta+Epsilon+Sigma;
// adaptive mode widens it to the link's estimated bound, so a
// slow-but-steady sender's control messages keep their protocol meaning
// instead of being rejected (and the sender eventually excluded) for
// exhibiting the delay its link always has.
func (m *Machine) isLate(from model.ProcessID, sendTS, now model.Time) bool {
	return now.Sub(sendTS) > m.fd.TimelyBound(from)
}

// joinCompleted finishes the join protocol: the decision's membership
// includes this process.
func (m *Machine) joinCompleted(dec *wire.Decision) {
	// Did any other joiner advertise fresher recovered state than our own
	// last advertisement? Checked against the advertised values, not the
	// live broadcast state — adopting this decision may already have
	// cleared cross-lineage coverage. Evaluated before lastJoin is reset.
	fresherSeen := false
	for q, ji := range m.lastJoin {
		if q == m.self || !ji.forming {
			continue
		}
		if ji.lineage > m.advLineage ||
			(ji.lineage == m.advLineage && ji.covered > m.advCovered) {
			fresherSeen = true
			break
		}
	}
	m.installGroup(dec.Group)
	m.setState(StateFailureFree)
	m.clearElection()
	m.lastJoin = make(map[model.ProcessID]joinInfo)
	// Admission into a group with history requires the decider's state
	// transfer, and the State unicast races this decision broadcast:
	// record the debt unless a transfer for (at least) this group already
	// arrived. Initial formation — the adopted log is exactly one
	// membership descriptor at ordinal 1 — has no state to transfer
	// between volatile processes; but when a co-former advertised fresher
	// recovered state, the forming decider's application state is the new
	// lineage's base and ours is stale, so the transfer debt applies.
	formation := dec.BaseTS == 0 && len(dec.OAL.Entries) == 1 &&
		dec.OAL.Entries[0].Kind == oal.MembershipDesc &&
		dec.OAL.Entries[0].Ordinal == 1
	if formation {
		m.needState = fresherSeen
		if !fresherSeen {
			// Our own recovered state is the lineage's base: no transfer
			// is coming, so stop deferring deliveries (if we ever were).
			m.bc.DeferDeliveries(false)
		}
	} else if m.appliedStateSeq < dec.Group.Seq {
		m.needState = true
	}
	next := m.group.Successor(dec.From)
	if m.isLate(dec.From, dec.SendTS, m.env.Now()) {
		// A late decision hands the role to no one. It still tells us whom
		// the group is waiting for: watch that process, or — when every
		// joiner got the forming decision late, as on a loaded host —
		// nobody ever would, the group would sit in failure-free with no
		// decider and no expectation, and its former would wait alone in
		// the join state for good. (When the role would have been ours, the
		// others' expectation on us does the same job.)
		if next != m.self {
			m.expectAfter(dec.From, dec.SendTS)
		}
		return
	}
	if next == m.self {
		m.becomeDecider(dec.SendTS)
	} else {
		m.expectAfter(dec.From, dec.SendTS)
	}
}

// handleExclusion reacts to a decision whose membership drops this
// process: remember the new group and wait (paper §4.2, n-failure state)
// until a decision from every new member has been seen, then fall back
// to the join state. The delay keeps this process available for a
// reconfiguration election if the new group immediately fails.
func (m *Machine) handleExclusion(dec *wire.Decision) {
	if !m.excluded || m.exclGroup.Seq != dec.Group.Seq {
		m.excluded = true
		m.exclGroup = dec.Group.Clone()
		m.exclSeen = model.NewProcessSet()
	}
	m.exclSeen.Add(dec.From)
	// The exclusion decision is now "the last group this process is
	// aware of" (paper §4.2 condition 4): an excluded process must never
	// lead a reconfiguration election of a group it does not belong to —
	// it rejoins through the join protocol instead. Not a view install:
	// we are not a member.
	m.group = dec.Group.Clone()
	m.setDecider(false)
	m.fd.ClearExpectation()
	m.env.CancelTimer(TimerExpect)
	m.env.CancelTimer(TimerDecide)
	if m.state != StateNFailure {
		m.enterNFailure(false)
	}
	for _, q := range m.exclGroup.Members {
		if !m.exclSeen.Has(q) {
			return
		}
	}
	// Heard from every new member: the new group is functioning without
	// us. Reset and rejoin.
	m.resetForJoin()
}

// resetForJoin clears all group and log state and restarts the join
// protocol. The broadcast layer is reset because an excluded process's
// history may have diverged from the majority's; the join-time state
// transfer re-establishes it.
func (m *Machine) resetForJoin() {
	m.haveGroup = false
	m.group = model.Group{}
	m.excluded = false
	m.exclSeen = nil
	m.clearElection()
	m.setDecider(false)
	m.lastJoin = make(map[model.ProcessID]joinInfo)
	m.lastReconfig = make(map[model.ProcessID]reconfigInfo)
	m.lastAlive = make(map[model.ProcessID]model.ProcessSet)
	m.fd.Forget()
	m.bc.Reset()
	m.seedSeq()
	m.freezeAdvertisement()
	// The delivered-set was just wiped: if hand-off resumed now, every
	// update the group's retained oal still holds would reach the
	// application a second time once we are re-admitted and adopt a
	// decision. Defer deliveries past what freezeAdvertisement decided
	// (a volatile excluded process advertises zero coverage) until the
	// join-time transfer re-bases the application — ApplyState clears
	// the deferral, as does forming a fresh lineage with no transfer due.
	m.bc.DeferDeliveries(true)
	m.needState = false
	m.appliedStateSeq = 0
	m.nackQ = nil // the wiped log makes the queued IDs meaningless
	m.env.CancelTimer(TimerExpect)
	m.env.CancelTimer(TimerDecide)
	m.env.CancelTimer(TimerNack)
	m.joinSince = m.env.Now()
	m.setState(StateJoin)
}

// SelfExclude drops a process that has detected its own performance
// failure (a fail-aware process's duty: it must not keep acting on a
// view whose timeliness assumptions it has personally violated) back to
// the join state. It is semantically an instantaneous crash and
// recovery with a perfect log: the broadcast image is snapshotted
// before the reset and re-seeded after, so the subsequent join
// advertises the process's real coverage and the group can serve a
// delta state transfer instead of a full one — the same warm-rejoin
// path a durable restart takes.
func (m *Machine) SelfExclude() {
	if m.state == StateJoin {
		return
	}
	img := m.bc.SnapshotImage()
	m.resetForJoin()
	m.bc.SeedRecovered(img)
	m.freezeAdvertisement()
	m.stats.SelfExclusions++
}

// --- No-decision handling ----------------------------------------------

func (m *Machine) onNoDecision(nd *wire.NoDecision) {
	if m.state == StateJoin || !m.haveGroup {
		return
	}
	m.pendingND[nd.From] = nd
	if !m.bc.ResolveNoDecisionDelta(nd) {
		// The view is delta-encoded against a baseline we lack. The ring
		// bookkeeping below needs only the header and suspect; the view
		// only matters when concluding the election, which retries the
		// resolution (the baseline may land via OALFull meanwhile).
		m.requestFullOAL(nd.From)
	}

	// Wrong-suspicion resend rule: if we are the suspect, somebody
	// missed our last control message; resend it.
	if nd.Suspect == m.self && m.lastControlMsg != nil {
		m.broadcast(m.lastControlMsg)
	}

	switch m.state {
	case StateFailureFree:
		if m.fd.Satisfies(nd.From, nd.SendTS) {
			// The process we expected a decision from sent a
			// no-decision instead: it missed a decision we hold.
			m.suspect = nd.Suspect
			m.setState(StateWrongSuspicion)
			if nd.Suspect != m.self && nd.From == m.ringPredecessor(m.self) {
				// The ring already reached us: we hold the decision the
				// suspicion is about, so we take over as decider and the
				// group continues unchanged.
				m.setState(StateFailureFree)
				m.clearElection()
				m.becomeDeciderNow()
				return
			}
			m.expectAfter(nd.From, nd.SendTS)
			return
		}
		// A no-decision about the very process we are watching, arriving
		// before our own deadline: if our expectation is still
		// unsatisfied we concur early (clocks differ by at most
		// epsilon). Only a suspicion newer than the control message
		// that armed our expectation counts: an older one complains
		// about an interval that message already covered — typically a
		// masked false alarm's no-decision re-broadcast by the resend
		// rule — and concurring would re-ignite the settled election
		// against the freshly handed-off decider.
		if exp, _, active := m.fd.Expected(); active && nd.Suspect == exp &&
			nd.SendTS > m.fd.ExpectedAfter() {
			m.beginSingleFailure(exp)
		}
	case State1FailureReceive:
		if m.fd.Satisfies(nd.From, nd.SendTS) {
			// The ring progresses ("a no-decision or a decision message
			// every D time units from the expected senders"): keep the
			// surveillance rolling.
			m.rollRing(nd.From, nd.SendTS)
		}
		if nd.Suspect == m.suspect {
			m.actOnPredecessorND()
		}
	case State1FailureSend:
		if m.fd.Satisfies(nd.From, nd.SendTS) {
			// The ring progresses; keep watching it.
			m.rollRing(nd.From, nd.SendTS)
		}
	case StateWrongSuspicion:
		if m.suspect != m.self && nd.From == m.ringPredecessor(m.self) {
			// The ring reached us and we hold the missing decision: we
			// take over as decider and the group continues unchanged —
			// a masked false alarm.
			m.setState(StateFailureFree)
			m.clearElection()
			m.becomeDeciderNow()
			return
		}
		if m.fd.Satisfies(nd.From, nd.SendTS) {
			m.rollRing(nd.From, nd.SendTS)
		}
	case StateNFailure:
		// Single-failure traffic is obsolete here.
	}
}

// rollRing advances the expected-sender surveillance past `from` and
// then drains any ring no-decisions that arrived out of order: with
// random network delays a successor's message can land before its
// predecessor's, and a buffered message must still roll the expectation
// when its turn comes.
func (m *Machine) rollRing(from model.ProcessID, ts model.Time) {
	m.expectAfter(from, ts)
	for i := 0; i < m.params.N; i++ {
		exp, _, active := m.fd.Expected()
		if !active {
			return
		}
		nd, ok := m.pendingND[exp]
		if !ok || !m.fd.Satisfies(exp, nd.SendTS) {
			return
		}
		m.expectAfter(nd.From, nd.SendTS)
	}
}

// actOnPredecessorND checks whether our ring predecessor's no-decision
// (for the current suspect) has arrived, and advances the ring: send our
// own no-decision, or — if we are the suspect's predecessor — conclude
// the election.
func (m *Machine) actOnPredecessorND() {
	if m.state == StateWrongSuspicion {
		return // handled by the wrong-suspicion rules
	}
	pred := m.ringPredecessor(m.self)
	nd, ok := m.pendingND[pred]
	if !ok || nd.Suspect != m.suspect {
		return
	}
	// Election messages are only usable for about (N-1)·D after they
	// were sent (paper §4.1): a stale no-decision belongs to an election
	// the rest of the group has already abandoned.
	if m.env.Now().Sub(nd.SendTS) > model.Duration(m.params.N-1)*m.params.D {
		return
	}
	if m.self != m.group.Predecessor(m.suspect) {
		if !m.ndSent {
			m.sendNoDecision(m.suspect)
			m.setState(State1FailureSend)
			m.rollRing(m.self, m.lastSendTS)
		}
		return
	}
	// We are the suspect's predecessor: every member except the suspect
	// has concurred. Conclude the single-failure election.
	if m.group.Size()-1 >= m.params.Majority() {
		m.winSingleElection()
	} else {
		// Removing the suspect would break the majority: escalate.
		m.enterNFailure(m.ndSent)
	}
}

// beginSingleFailure reacts to a timeout failure (or an early concurring
// no-decision) of the expected sender s.
func (m *Machine) beginSingleFailure(s model.ProcessID) {
	m.suspect = s
	m.bc.SuppressSender(s, m.env.Now())
	if m.self == m.group.Successor(s) {
		m.sendNoDecision(s)
		m.setState(State1FailureSend)
		// Watch the ring: our own message restarts the chain.
		m.rollRing(m.self, m.lastSendTS)
		if m.group.Size() == 2 {
			// Degenerate ring: in a two-member group we are both the
			// suspect's successor and its predecessor, so there is no
			// one left to concur and nothing to arm surveillance on
			// (the ring successor of self is self). Conclude at once —
			// "every member except the suspect" has vacuously concurred
			// — or the process would wait in 1-failure-send forever.
			if m.group.Size()-1 >= m.params.Majority() {
				m.winSingleElection()
			} else {
				m.enterNFailure(m.ndSent)
			}
		}
	} else {
		m.setState(State1FailureReceive)
		// The ring starts at the suspect's successor; buffered
		// no-decisions that already arrived roll the surveillance.
		m.rollRing(s, m.fd.LastTS(s))
		m.actOnPredecessorND()
	}
}

// winSingleElection removes the suspect, reconciles the log (§4.3) and
// takes over as decider.
func (m *Machine) winSingleElection() {
	now := m.env.Now()
	departed := []model.ProcessID{m.suspect}
	newGroup := m.group.Remove(m.suspect)
	newGroup.Seq = m.nextGroupSeq()

	reports := make([]broadcast.Report, 0, len(m.pendingND))
	for _, from := range newGroup.Members {
		nd, ok := m.pendingND[from]
		if !ok {
			continue
		}
		view := &nd.View
		if !m.bc.ResolveNoDecisionDelta(nd) {
			// Still delta-encoded against a baseline we lack. The view's
			// Next rides the wire even in delta form, so we can tell
			// whether the peer's log extends past ours: if it does, we
			// must not reconcile without it — stand down and let the
			// requested baseline arrive (or the election escalate to the
			// reconfiguration protocol, whose views are always full).
			if nd.View.Next > m.bc.HighestOrdinal()+1 {
				m.requestFullOAL(from)
				return
			}
			// A prefix of our log: its entries add nothing; its dpd (sent
			// separately, never delta-encoded) still counts.
			view = nil
		}
		reports = append(reports, broadcast.Report{From: from, View: view, DPD: nd.DPD})
	}
	m.bc.Reconcile(now, newGroup, departed, reports)
	m.installGroup(newGroup)
	m.stats.SingleElections++
	m.setState(StateFailureFree)
	m.clearElection()
	m.becomeDeciderNow()
}

// sendNoDecision broadcasts a no-decision message suspecting q, carrying
// this process's oal view and dpd (§4.3).
func (m *Machine) sendNoDecision(q model.ProcessID) {
	m.bc.SuppressSender(q, m.env.Now())
	view, baseTS, truncBelow := m.bc.NoDecisionView()
	nd := &wire.NoDecision{
		Header:     wire.Header{From: m.self, SendTS: m.sendTS()},
		Suspect:    q,
		GroupSeq:   m.group.Seq,
		View:       view,
		BaseTS:     baseTS,
		TruncBelow: truncBelow,
		DPD:        m.bc.DPD(),
		Alive:      m.fd.DirectAliveList(m.env.Now()),
	}
	m.broadcast(nd)
	m.lastControlMsg = nd
	m.ndSent = true
	m.stats.NDsSent++
}

// --- Timeout handling ----------------------------------------------------

func (m *Machine) onExpectTimeout() {
	now := m.env.Now()
	suspect, deadline, timedOut := m.fd.TimedOut(now)
	if !timedOut {
		// Not expired: either a stale timer, or the synchronized clock
		// was stepped backwards by a correction after the timer was
		// armed. Re-arm for the still-pending deadline.
		if _, pending, active := m.fd.Expected(); active {
			m.env.SetTimer(TimerExpect, pending.Add(1))
		} else if m.inSingleElection() {
			// The stall deadline of an election with nobody left to watch
			// (see expectAfter): it did not conclude, so more than one
			// failure has occurred.
			m.enterNFailure(m.ndSent)
		}
		return
	}
	if m.cfg.Hooks.Suspicion != nil {
		m.cfg.Hooks.Suspicion(suspect, deadline, now)
	}
	if m.sv != nil && m.sv.Watches(suspect) && m.sv.ShouldOriginate(suspect, now) {
		// Share the local timeout with the rest of the group: under
		// partial view most members never watched this edge and would
		// otherwise learn of the failure a full silence window later.
		// Only the suspect's designated watchers speak — every member of
		// the rotation observes this timeout at once, and N concurrent
		// originations would defeat the O(N·k) traffic bound.
		m.gossipSuspect(suspect)
	}
	m.fd.ClearExpectation()
	switch m.state {
	case StateFailureFree:
		if m.cfg.DisableFastPath {
			m.suspect = suspect
			m.bc.SuppressSender(suspect, now)
			m.enterNFailure(false)
			return
		}
		m.beginSingleFailure(suspect)
	case StateWrongSuspicion, State1FailureReceive, State1FailureSend:
		// The single-failure election itself stalled: more than one
		// failure has occurred.
		m.enterNFailure(m.ndSent)
	case StateNFailure, StateJoin:
		// No expectations are armed in these states.
	}
}

// --- Decider duty --------------------------------------------------------

// becomeDecider assumes the decider role. The role is held for the
// configured idle hold and the decision goes out on TimerDecide — unless
// the decision would do work a delivery waits on, which brings it
// forward (see decideIfOrderable). baseTS is the send timestamp of the
// decision that handed us the role: peers expect our control message by
// baseTS+2D, so when that decision arrived late (a retransmission after
// a masked false alarm) the hold is shortened to keep our decision
// inside their deadline.
func (m *Machine) becomeDecider(baseTS model.Time) {
	m.setDecider(true)
	m.fd.ClearExpectation()
	m.env.CancelTimer(TimerExpect)
	now := m.env.Now()
	at := now.Add(m.cfg.DeciderHold)
	if limit := baseTS.Add(m.params.D - m.params.Delta); limit >= now && at > limit {
		// The handing decision is timely: shorten the hold so our
		// decision lands inside the peers' baseTS+2D deadline.
		at = limit
	}
	// When the handing decision is stale (a retransmission after a
	// masked false alarm), peers have re-based their deadlines on
	// receipt (expectAfter grants now+D), so the full hold applies — it
	// also gives a concurrent wrong-suspicion takeover decision time to
	// arrive and relinquish us before we send a competing one.
	m.armDecide(at, earlyNone)
	m.decideIfOrderable()
}

// armDecide sets the decider-duty timer and remembers what it is set to
// and what kind of decision it sends, so that an early decision only
// ever brings it forward and is counted as what it was armed for.
func (m *Machine) armDecide(at model.Time, kind int) {
	m.decideAt, m.decideKind = at, kind
	m.env.SetTimer(TimerDecide, at)
}

// decideIfOrderable is the work-conserving half of the decider duty: the
// paper bounds the interval before a decider sends its decision by D
// from above only, so a decider whose decision would do work a delivery
// waits on does not sit out the idle hold. In failure-free operation of
// a group of at least two, a decider sends early when its decision
// would
//
//   - assign at least one ordinal (broadcast.Orderable): an ordering
//     decision, at the first D/128 cell edge after the latest decision
//     that assigned an ordinal, or at the next D/32 slot edge once the
//     decisions of that slot have ordered its budget
//     (broadcast.NextOrderingAt). Below the ceiling a proposal is so
//     ordered within a cell of arriving, and at most one ordering
//     decision goes out per cell; at the ceiling one goes out per slot
//     with the whole budget (broadcast.MaxOrdinalsPerDecision), and what
//     a group orders per second is set by D and not by how fast its
//     hosts happen to run;
//   - otherwise, publish an acknowledgement a Strong or Strict delivery
//     still waits on (broadcast.AckAwaited): an ack-only decision, at
//     once. Acknowledgements travel only in decisions, so without it such
//     an update waits a further rotation of held decisions for its
//     majority or all-ack;
//   - otherwise, pass the settle point of a time-ordered update
//     (broadcast.TimeReleaseAt): a release decision, at exactly that
//     point, which is when orderOK first lets the update go.
//
// A decision whose time has come is sent at the end of the current
// handler, and on TimerDecide otherwise. With none of the three — an
// idle group holds none — and in every other state, the hold and all
// failure-detector deadlines stay as they are. All three tests are
// exact, so the role cannot spin through an idle group: an ordering
// decision assigns an ordinal (it is never due while its slot has no
// room left), an ack-only one publishes an own ack, of which there are
// finitely many, and a release decision moves the latest decision past
// the settle point it was sent for.
func (m *Machine) decideIfOrderable() {
	if !m.isDecider {
		return
	}
	kind, at := m.earlyDecision()
	if kind == earlyNone {
		return
	}
	if at > m.env.Now() {
		if at < m.decideAt {
			m.armDecide(at, kind)
		}
		return
	}
	m.env.CancelTimer(TimerDecide)
	m.sendRotationDecision(kind)
}

// sendRotationDecision sends the failure-free rotation's decision,
// counting it by what made it early, if anything.
func (m *Machine) sendRotationDecision(kind int) {
	switch kind {
	case earlyOrdering:
		m.stats.DecisionsEarly++
	case earlySlotFull:
		m.stats.DecisionsEarly++
		m.stats.DecisionsSlotFull++
	case earlyAckOnly:
		m.stats.DecisionsEarly++
		m.stats.DecisionsAckOnly++
	case earlyRelease:
		m.stats.DecisionsEarly++
		m.stats.DecisionsRelease++
	}
	m.sendDecision()
}

// Kinds of decision a decider sends early, in the order earlyDecision
// tests them: an ordering decision publishes its own acks too, and any
// decision releases what its timestamp has passed. earlySlotFull is an
// ordering decision held to the next slot edge because the slot's budget
// was spent.
const (
	earlyNone = iota
	earlyOrdering
	earlySlotFull
	earlyAckOnly
	earlyRelease
)

// earlyDecision reports what, if anything, makes a decision of the
// failure-free rotation an early one, and when that decision is due.
func (m *Machine) earlyDecision() (kind int, at model.Time) {
	if m.state != StateFailureFree || m.group.Size() < 2 {
		return earlyNone, 0
	}
	now := m.env.Now()
	switch {
	case m.bc.Orderable(now):
		at, full := m.bc.NextOrderingAt()
		if full && at > now {
			return earlySlotFull, at
		}
		return earlyOrdering, at
	case m.bc.AckAwaited():
		return earlyAckOnly, now
	}
	if at, ok := m.bc.TimeReleaseAt(); ok {
		return earlyRelease, at
	}
	return earlyNone, 0
}

// becomeDeciderNow assumes the decider role and sends the decision
// immediately (election wins, group formation).
func (m *Machine) becomeDeciderNow() {
	m.setDecider(true)
	m.fd.ClearExpectation()
	m.env.CancelTimer(TimerExpect)
	m.env.CancelTimer(TimerDecide)
	m.sendDecision()
}

// sendDecision performs the decider duty: admit eligible joiners, build
// and broadcast the decision, transfer state to fresh admissions, hand
// the role to the successor and start watching it.
func (m *Machine) sendDecision() {
	now := m.env.Now()
	admitted := m.admitJoiners(now)

	// The wire alive-list is first-hand only: receivers treat each entry
	// as a gossiped vouch, and re-exporting vouches would echo (see
	// noteAlive).
	dec, missing := m.bc.BuildDecision(m.sendTS(), m.group, m.fd.DirectAliveList(now))
	m.broadcast(dec)
	m.lastControlMsg = dec
	m.stats.DecisionsSent++
	m.setDecider(false)

	m.queueNack(missing, wire.Causal{})
	for _, j := range admitted {
		ji := m.lastJoin[j]
		m.unicast(j, m.bc.BuildState(dec.SendTS, ji.covered, ji.lineage))
	}

	if m.group.Size() <= 1 {
		// Singleton group: the role rotates back to us.
		m.setDecider(true)
		m.armDecide(now.Add(m.params.D), earlyNone)
		return
	}
	m.expectAfter(m.self, dec.SendTS)
}

// admitJoiners implements the rejoin rule: a non-member j is admitted
// when this decider has heard j's join recently and every current member
// piggybacked j in its alive-list. Returns the processes admitted now
// (state transfer follows the decision). It also re-sends state to
// current members that are still joining (they missed our earlier
// transfer).
func (m *Machine) admitJoiners(now model.Time) []model.ProcessID {
	var admitted []model.ProcessID
	alive := m.fd.AliveSet(now)
	joiners := make([]model.ProcessID, 0, len(m.lastJoin))
	for j := range m.lastJoin {
		joiners = append(joiners, j)
	}
	slices.Sort(joiners)
	for _, j := range joiners {
		ji := m.lastJoin[j]
		if now.Sub(ji.ts) > m.params.CycleLen() {
			continue // stale join
		}
		if m.group.Contains(j) {
			// A current member still joining: it missed its state
			// transfer; send again (rate-limited).
			if now.Sub(m.lastStateSent[j]) >= m.params.CycleLen() {
				m.lastStateSent[j] = now
				m.unicast(j, m.bc.BuildState(now, ji.covered, ji.lineage))
			}
			continue
		}
		if !alive.Has(j) {
			continue
		}
		ok := true
		for _, r := range m.group.Members {
			if r == m.self {
				continue
			}
			la, have := m.lastAlive[r]
			if !have || !la.Has(j) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		newGroup := model.NewGroup(m.nextGroupSeq(), append([]model.ProcessID{j}, m.group.Members...))
		m.bc.AnnounceGroup(now, newGroup)
		m.installGroup(newGroup)
		m.lastStateSent[j] = now
		m.stats.Admissions++
		admitted = append(admitted, j)
	}
	return admitted
}
