package member

import (
	"slices"

	"timewheel/internal/broadcast"
	"timewheel/internal/model"
	"timewheel/internal/wire"
)

// onOwnSlot runs at the start of each of this process's own time slots:
// join-state processes send join messages, n-failure processes send
// reconfiguration messages and evaluate the election win condition.
func (m *Machine) onOwnSlot() {
	m.bc.CheckTermination(m.env.Now())
	m.surveilScan()
	if m.needState && m.haveGroup && m.state != StateJoin {
		// The join-time state transfer is still outstanding (the State
		// unicast was lost, or a newer admission superseded the one we
		// got): re-advertise as a joiner so the decider's resend path
		// (admitJoiners) fires again. Not via sendJoin — this must not
		// displace lastControlMsg, which the wrong-suspicion resend rule
		// may need for a decision.
		// The advertised coverage repeats the last sendJoin values rather
		// than the live broadcast state: while the transfer is outstanding
		// this process's application state still has the base it had when
		// it joined, so a fresher live claim (e.g. the new lineage adopted
		// from the admitting decision) would earn a delta on top of the
		// wrong base. The stale claim degrades safely to a full transfer.
		m.broadcast(&wire.Join{
			Header:         wire.Header{From: m.self, SendTS: m.sendTS()},
			JoinList:       []model.ProcessID{m.self},
			CoveredOrdinal: m.advCovered,
			Lineage:        m.advLineage,
		})
		m.stats.JoinsSent++
	}
	switch m.state {
	case StateJoin:
		m.sendJoin()
		m.tryFormInitialGroup()
	case StateNFailure:
		if m.env.Now().Sub(m.nfSince) > model.Duration(m.cfg.NFFallbackCycles)*m.params.CycleLen() {
			// No election has succeeded for a long time: the survival
			// assumption is gone (our "last group" can never supply a
			// majority). Forfeit the group knowledge and rejoin.
			m.resetForJoin()
			m.sendJoin()
			return
		}
		m.sendReconfig()
		m.tryWinReconfigElection()
	}
}

// lastSlotStartOf returns the start of q's most recent slot at or before
// now, less the clock tolerance epsilon+sigma. Election freshness
// ("received in p's last time slot") is judged against it: a timestamp q
// stamped at its slot start on its own synchronized clock may lag this
// process's clock by up to the synchronization deviation.
func (m *Machine) lastSlotStartOf(q model.ProcessID, now model.Time) model.Time {
	next := m.params.NextSlotOf(q, now) // strictly after now
	return next.Add(-m.params.CycleLen() - m.params.Epsilon - m.params.Sigma)
}

// --- Join protocol -------------------------------------------------------

// joinList returns this process's join-list: itself plus every process
// whose join message arrived within the last cycle (the paper's N-1
// slots, widened by one slot plus the clock tolerance so that the
// cyclic successor's once-per-cycle join does not age out at the exact
// window edge; the strict per-sender "last slot" freshness of the win
// condition is what guarantees at-most-one-decider).
func (m *Machine) joinList(now model.Time) model.ProcessSet {
	window := m.params.CycleLen() + m.params.Epsilon + m.params.Sigma
	jl := model.NewProcessSet(m.self)
	for q, ji := range m.lastJoin {
		// Non-forming joins (a member re-advertising a lost state
		// transfer) stay out: that member never evaluates the formation
		// rule, so counting it would demand a join-list convergence it
		// cannot take part in.
		if q != m.self && ji.forming && now.Sub(ji.ts) <= window {
			jl.Add(q)
		}
	}
	return jl
}

// freezeAdvertisement captures the recovered coverage this process will
// advertise for the whole of the upcoming join: every sendJoin repeats
// the frozen values rather than re-sampling the broadcast layer. While
// joining the process adopts live decisions, and the live
// CoveredOrdinal counts stable-truncated ordinals it never applied —
// re-advertising it would shrink the replay delta below what the
// recovered application state actually holds. Deliveries are deferred
// for the same reason whenever a nonzero claim is advertised (a delta,
// not a rebasing full install, may answer it). For volatile processes
// both values are zero and the deferral stays off: behavior is
// unchanged.
func (m *Machine) freezeAdvertisement() {
	m.advCovered, m.advLineage = m.bc.CoveredOrdinal(), m.bc.Lineage()
	m.bc.DeferDeliveries(m.advCovered > 0 && m.advLineage != 0)
}

func (m *Machine) sendJoin() {
	now := m.env.Now()
	j := &wire.Join{
		Header:         wire.Header{From: m.self, SendTS: m.sendTS()},
		JoinList:       m.joinList(now).Sorted(),
		CoveredOrdinal: m.advCovered,
		Lineage:        m.advLineage,
		Forming:        true,
	}
	m.broadcast(j)
	m.lastControlMsg = j
	m.stats.JoinsSent++
}

// onJoin records a join message. Current members track joiners through
// their alive-lists (joins are control messages); joining processes
// build join-lists from them.
func (m *Machine) onJoin(j *wire.Join) {
	m.lastJoin[j.From] = joinInfo{
		ts:      j.SendTS,
		list:    model.NewProcessSet(j.JoinList...),
		covered: j.CoveredOrdinal,
		lineage: j.Lineage,
		forming: j.Forming,
	}
}

// tryFormInitialGroup applies the paper's initial-formation rule in this
// process's own slot: it becomes the first decider when (1) its
// join-list contains a majority of the team, and (2) it received a join
// message from every other join-list member in that member's last slot
// carrying an identical join-list.
func (m *Machine) tryFormInitialGroup() {
	now := m.env.Now()
	jl := m.joinList(now)
	if len(jl) < m.params.Majority() {
		return
	}
	for q := range jl {
		if q == m.self {
			continue
		}
		ji := m.lastJoin[q]
		if ji.ts < m.lastSlotStartOf(q, now) {
			return // stale: not from q's last slot
		}
		if !ji.list.Equal(jl) {
			return // join-lists have not converged yet
		}
	}
	if m.staleForFormation(jl) {
		return // a joiner with fresher recovered state must form instead
	}
	group := model.NewGroup(m.nextGroupSeq(), jl.Sorted())
	// Formation restarts the ordinal space: announce the new lineage so
	// every decision carries it and stale recovered coverage is dropped.
	m.bc.BeginLineage(group.Seq)
	// This process's application state is the new lineage's base: no
	// transfer is coming to end a deferral resetForJoin began, so hand-off
	// resumes here, as it does at a co-former (joinCompleted).
	m.bc.DeferDeliveries(false)
	m.bc.AnnounceGroup(now, group)
	m.installGroup(group)
	m.setState(StateFailureFree)
	m.clearElection()
	m.lastJoin = make(map[model.ProcessID]joinInfo)
	m.becomeDeciderNow()
}

// staleForFormation reports whether another join-list member advertised
// fresher recovered state than this process, in which case this process
// must not win the formation race: the first decider's application
// state becomes the new lineage's base, so the freshest recovered state
// has to form the group (everyone else re-syncs from it). Ordering is
// by (lineage, covered, process id) — lineages grow monotonically, so a
// higher lineage means a later, fresher history. With no recovered
// state anywhere (all advertisements zero) the gate is inert and
// formation behaves exactly as in the volatile protocol.
func (m *Machine) staleForFormation(jl model.ProcessSet) bool {
	// Compare what everyone *advertised*: our live broadcast coverage
	// may have drifted upward from decisions adopted mid-join, and the
	// peers ranked us by the frozen values our joins carried.
	myLin, myCov := m.advLineage, m.advCovered
	any := myLin != 0 || myCov != 0
	stale := false
	for q := range jl {
		if q == m.self {
			continue
		}
		ji := m.lastJoin[q]
		if ji.lineage != 0 || ji.covered != 0 {
			any = true
		}
		if ji.lineage > myLin ||
			(ji.lineage == myLin && ji.covered > myCov) ||
			(ji.lineage == myLin && ji.covered == myCov && q > m.self) {
			stale = true
		}
	}
	return any && stale
}

// --- Reconfiguration (multiple-failure) protocol --------------------------

// enterNFailure switches to the n-failure state. If this process sent a
// no-decision message in the failed single-failure election, it is
// quarantined for N-1 slots: its no-decision must not combine with a
// reconfiguration message to elect two deciders (paper §4.2), so it
// sends empty reconfiguration-lists and skips win evaluation until the
// quarantine expires.
func (m *Machine) enterNFailure(sentND bool) {
	now := m.env.Now()
	if sentND {
		m.quarantineUntil = now.Add(model.Duration(m.params.N-1) * m.params.SlotLen())
	}
	m.fd.ClearExpectation()
	m.env.CancelTimer(TimerExpect)
	m.env.CancelTimer(TimerDecide)
	m.setDecider(false)
	// The single-failure episode is over; its buffered no-decisions must
	// never complete a ghost election later.
	m.pendingND = make(map[model.ProcessID]*wire.NoDecision)
	if m.state != StateNFailure {
		m.nfSince = now
	}
	m.setState(StateNFailure)
}

// reconfigList returns this process's reconfiguration-list: itself plus
// every process whose reconfiguration message arrived within the last
// cycle (widened like joinList; see there). During quarantine the list
// is empty.
func (m *Machine) reconfigList(now model.Time) model.ProcessSet {
	if now < m.quarantineUntil {
		return model.NewProcessSet()
	}
	window := m.params.CycleLen() + m.params.Epsilon + m.params.Sigma
	rl := model.NewProcessSet(m.self)
	for q, ri := range m.lastReconfig {
		if q != m.self && now.Sub(ri.msg.SendTS) <= window {
			rl.Add(q)
		}
	}
	return rl
}

func (m *Machine) sendReconfig() {
	now := m.env.Now()
	// Anyone absent from our reconfiguration-list is one we are asking
	// to remove: suppress their in-flight proposals (§4.3).
	rl := m.reconfigList(now)
	for _, q := range m.group.Members {
		if q != m.self && !rl.Has(q) {
			m.bc.SuppressSender(q, now)
		}
	}
	r := &wire.Reconfig{
		Header:         wire.Header{From: m.self, SendTS: m.sendTS()},
		ReconfigList:   rl.Sorted(),
		LastDecisionTS: m.bc.LastDecisionTS(),
		GroupSeq:       m.group.Seq,
		View:           *m.bc.CurrentView(),
		DPD:            m.bc.DPD(),
		Alive:          m.fd.DirectAliveList(now),
	}
	m.broadcast(r)
	m.lastControlMsg = r
	m.stats.ReconfigsSent++
}

// onReconfig records a reconfiguration message and handles the state
// transitions it triggers outside the n-failure state: a reconfiguration
// from the expected sender signals multiple failures.
func (m *Machine) onReconfig(r *wire.Reconfig) {
	if m.state == StateJoin || !m.haveGroup {
		return
	}
	m.lastReconfig[r.From] = reconfigInfo{msg: r}
	switch m.state {
	case StateFailureFree, StateWrongSuspicion, State1FailureReceive, State1FailureSend:
		if m.fd.Satisfies(r.From, r.SendTS) {
			m.enterNFailure(m.ndSent)
		}
	case StateNFailure:
		// Recorded above; the win condition is evaluated in our slot.
	}
}

// tryWinReconfigElection applies the paper's four-part win condition in
// this process's own slot: there must be a majority S (including this
// process) whose reconfiguration messages (a) arrived in their senders'
// last slots, (b) carry reconfiguration-lists identical to ours,
// (c) propose decision timestamps no newer than ours, and (d) whose
// members all belonged to the last group we know. The winner reconciles
// the log, forms the new group from exactly S, and becomes decider.
func (m *Machine) tryWinReconfigElection() {
	now := m.env.Now()
	if now < m.quarantineUntil {
		return
	}
	if !m.haveGroup || !m.group.Contains(m.self) {
		return
	}
	myList := m.reconfigList(now)
	myTS := m.bc.LastDecisionTS()

	members := []model.ProcessID{m.self}
	var reports []broadcast.Report
	peers := make([]model.ProcessID, 0, len(m.lastReconfig))
	for q := range m.lastReconfig {
		peers = append(peers, q)
	}
	slices.Sort(peers)
	for _, q := range peers {
		if q == m.self {
			continue
		}
		msg := m.lastReconfig[q].msg
		if msg.SendTS < m.lastSlotStartOf(q, now) {
			continue // not from q's last slot
		}
		if !model.NewProcessSet(msg.ReconfigList...).Equal(myList) {
			continue
		}
		if msg.LastDecisionTS > myTS {
			return // someone holds a fresher decision: they must lead
		}
		if !m.group.Contains(q) {
			continue
		}
		members = append(members, q)
		reports = append(reports, broadcast.Report{From: q, View: &msg.View, DPD: msg.DPD})
	}
	if len(members) < m.params.Majority() {
		return
	}

	newGroup := model.NewGroup(m.nextGroupSeq(), members)
	var departed []model.ProcessID
	for _, q := range m.group.Members {
		if !newGroup.Contains(q) {
			departed = append(departed, q)
		}
	}
	m.bc.Reconcile(now, newGroup, departed, reports)
	m.installGroup(newGroup)
	m.stats.ReconfigElections++
	m.setState(StateFailureFree)
	m.clearElection()
	m.lastReconfig = make(map[model.ProcessID]reconfigInfo)
	m.quarantineUntil = 0
	m.becomeDeciderNow()
}
