// Package member implements the timewheel group membership protocol —
// the paper's core contribution: a group creator realised as a six-state
// finite state machine (paper Figure 2) driving three recovery
// mechanisms over an unreliable failure detector:
//
//   - join: initial group formation and reintegration via time-slotted
//     join messages (majority with identical join-lists elects the first
//     decider);
//   - single-failure election: a ring of no-decision messages removes a
//     lost decider quickly, with the wrong-suspicion state masking false
//     alarms so the service is never interrupted by them;
//   - multiple-failure election: time-slotted reconfiguration messages;
//     the process holding the freshest decision forms a new majority
//     group.
//
// The membership protocol sends no messages of its own during
// failure-free periods: the broadcast layer's rotating decision messages
// double as heartbeats, and the failure detector merely watches them.
package member

import (
	"fmt"

	"timewheel/internal/broadcast"
	"timewheel/internal/fdetect"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/surveil"
	"timewheel/internal/wire"
)

// State enumerates the group creator's states (paper Figure 2).
type State uint8

const (
	// StateJoin: not (yet) a member; sending join messages each own slot.
	StateJoin State = iota
	// StateFailureFree: member of a functioning group.
	StateFailureFree
	// StateWrongSuspicion: a single failure is suspected but this
	// process does not concur (it holds the allegedly missing decision).
	StateWrongSuspicion
	// State1FailureReceive: concurs with a single-failure suspicion,
	// has not yet sent its no-decision message.
	State1FailureReceive
	// State1FailureSend: concurs and has sent its no-decision message.
	State1FailureSend
	// StateNFailure: multiple failures suspected; time-slotted
	// reconfiguration election in progress.
	StateNFailure
)

func (s State) String() string {
	switch s {
	case StateJoin:
		return "join"
	case StateFailureFree:
		return "failure-free"
	case StateWrongSuspicion:
		return "wrong-suspicion"
	case State1FailureReceive:
		return "1-failure-receive"
	case State1FailureSend:
		return "1-failure-send"
	case StateNFailure:
		return "n-failure"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// TimerID names the machine's timers. Setting a timer replaces any
// earlier setting with the same ID.
type TimerID uint8

const (
	// TimerExpect fires at the expected-sender surveillance deadline.
	TimerExpect TimerID = iota
	// TimerDecide fires when this process, as decider, must send its
	// decision.
	TimerDecide
	// TimerSlot fires at the start of each of this process's own time
	// slots (join and reconfiguration sends).
	TimerSlot
	// TimerNack fires when queued missing-body nacks come due: a nack
	// is deferred one delay bound past the decision that exposed the
	// loss, so a body still in flight (broadcast concurrently with the
	// decision covering it) lands instead of triggering a spurious
	// group-wide nack/retransmission round.
	TimerNack
)

func (t TimerID) String() string {
	switch t {
	case TimerExpect:
		return "expect"
	case TimerDecide:
		return "decide"
	case TimerSlot:
		return "slot"
	case TimerNack:
		return "nack"
	default:
		return fmt.Sprintf("timer(%d)", uint8(t))
	}
}

// Env is the machine's interface to its process: a synchronized clock,
// the datagram service, and a timer service. All times are
// synchronized-clock times.
type Env interface {
	Now() model.Time
	Broadcast(m wire.Message)
	Unicast(to model.ProcessID, m wire.Message)
	SetTimer(id TimerID, at model.Time)
	CancelTimer(id TimerID)
}

// Hooks are optional observation points for tracing and experiments.
type Hooks struct {
	StateChange func(from, to State, at model.Time)
	ViewChange  func(g model.Group, at model.Time)
	Decider     func(isDecider bool, at model.Time)
	// Suspicion fires when the failure detector times out on a process:
	// deadline is the ts+2D expectation that expired and now the local
	// clock when the timeout handler ran, so now-deadline is the
	// suspicion reaction lag (timer slip + queueing) that fail-aware
	// timeliness claims are judged against.
	Suspicion func(suspect model.ProcessID, deadline, now model.Time)
	// WireEvent fires for every protocol message the machine sends
	// (dir=WireSend; peer is the unicast destination, NoProcess for
	// broadcasts) or accepts (dir=WireRecv; peer is the sender). ctx is
	// the message's causal trace context. Called on the machine's
	// goroutine from the send/receive hot path — keep it scalar-only and
	// allocation-free.
	WireEvent func(dir WireDir, kind wire.Kind, peer model.ProcessID, ctx wire.Causal, at model.Time)
}

// Config tunes the machine.
type Config struct {
	// DeciderHold is how long a process with nothing to order and no
	// awaited ack holds the decider role before sending its decision (the
	// idle cadence; otherwise it decides early, see decideIfOrderable).
	// Must be well under D; defaults to D/2.
	DeciderHold model.Duration
	// DisableFastPath skips the single-failure no-decision election and
	// escalates every timeout straight to the time-slotted
	// reconfiguration protocol. Exists only for the ablation that
	// reproduces the paper's motivation for optimising the common case.
	DisableFastPath bool
	// NFFallbackCycles bounds how long a process sits in n-failure
	// without an election win before abandoning its group knowledge and
	// rejoining from scratch (default 8 cycles; see Machine.nfSince).
	NFFallbackCycles int
	// Surveillance enables k-successor surveillance with gossiped
	// suspicions (wire v8; see surveil.go). The zero value keeps the
	// paper's all-to-all scheme.
	Surveillance surveil.Config
	Hooks        Hooks
}

type joinInfo struct {
	ts   model.Time
	list model.ProcessSet
	// covered and lineage are the durable coverage the joiner advertised:
	// the contiguous ordinal prefix its recovered state includes, and the
	// ordinal space that prefix belongs to. Zero for volatile joiners.
	covered oal.Ordinal
	lineage model.GroupSeq
	// forming is the join's Forming flag: only joins from processes
	// actually running the join protocol weigh in on formation.
	forming bool
}

type reconfigInfo struct {
	msg *wire.Reconfig
}

// Machine is one process's group creator. Drive it from a single
// goroutine or the simulation loop: Start once, then OnMessage for every
// received protocol message and OnTimer for every timer expiry.
type Machine struct {
	self   model.ProcessID
	params model.Params
	cfg    Config
	env    Env
	bc     *broadcast.Broadcast
	fd     *fdetect.Detector
	// sv is the k-successor surveillance state; nil when surveillance is
	// off (all-to-all mode).
	sv *surveil.Surveillor

	state     State
	group     model.Group
	haveGroup bool

	// Election state.
	suspect         model.ProcessID
	ndSent          bool
	quarantineUntil model.Time
	pendingND       map[model.ProcessID]*wire.NoDecision

	// nfSince records when the current n-failure episode began; after
	// NFFallbackCycles without an election win the machine abandons its
	// group knowledge and falls back to the join protocol. This is the
	// escape hatch for runs that violate the paper's survival assumption
	// ("at least a majority of processes which were members of the last
	// group survive"): the knowledge of "the last group" can end up
	// split across dead forks so that no process can assemble a
	// majority S from its own last group, deadlocking every election.
	nfSince model.Time

	// joinSince is when this process last dropped back to the join state
	// (zero for its first join): decisions sent earlier cannot admit it.
	joinSince model.Time

	// Decider duty: decideAt is what TimerDecide is set to while the
	// role is held, and decideKind the kind of decision it sends
	// (earlyNone for the idle hold).
	isDecider  bool
	decideAt   model.Time
	decideKind int

	// Join protocol.
	lastJoin map[model.ProcessID]joinInfo

	// Reconfiguration protocol.
	lastReconfig map[model.ProcessID]reconfigInfo

	// Piggybacked alive-lists from other members' control messages,
	// used by the rejoin admission rule ("all group members have
	// included p in their alive-list").
	lastAlive map[model.ProcessID]model.ProcessSet

	// Exclusion handling (n-failure delayed switch to join).
	exclGroup model.Group
	exclSeen  model.ProcessSet
	excluded  bool

	// lastControlMsg is the last control message broadcast, for the
	// wrong-suspicion resend rule.
	lastControlMsg wire.Message

	// lastSendTS makes this process's control timestamps strictly
	// monotonic even if the synchronized clock is stepped backwards.
	lastSendTS model.Time

	// lastCausal is the causal context of the protocol round this
	// process currently belongs to: the last decision sent or adopted.
	// Non-decision control messages continue this chain (see stamp).
	lastCausal wire.Causal

	// lastStateSent rate-limits join-time state transfers per joiner.
	lastStateSent map[model.ProcessID]model.Time

	// lastOALReq rate-limits full-oal baseline requests per target: one
	// OALReq per sender per D, however many unresolvable deltas arrive.
	lastOALReq map[model.ProcessID]model.Time

	// nackQ holds missing-body nacks deferred by the Delta grace (see
	// TimerNack), in due order; the armed TimerNack tracks the head.
	nackQ []nackEntry

	// needState records an outstanding join-time state transfer: the
	// admitting decision (a broadcast) can overtake the decider's State
	// unicast, and the unicast can be lost outright. While set, the
	// process keeps advertising itself as a joiner in its own slot so the
	// decider's resend path fires, and it accepts a State even though it
	// already holds a group and a non-empty log.
	needState bool
	// appliedStateSeq is the group sequence of the last applied state
	// transfer; an admission into a group at most this old needs no
	// further transfer (the State won the race against the decision).
	appliedStateSeq model.GroupSeq

	// advCovered and advLineage are what this process advertised in its
	// last join message. The formation paths compare them against other
	// joiners' advertisements *after* the broadcast layer's live values
	// have already moved on (adopting the formation decision clears
	// cross-lineage coverage), so the advertised values are kept here.
	advCovered oal.Ordinal
	advLineage model.GroupSeq

	stats Stats
}

// Stats counts membership-protocol activity.
type Stats struct {
	ViewChanges       uint64
	SingleElections   uint64 // single-failure elections completed here
	ReconfigElections uint64 // reconfiguration elections won here
	WrongSuspicions   uint64 // wrong-suspicion states entered
	NDsSent           uint64
	ReconfigsSent     uint64
	JoinsSent         uint64
	DecisionsSent     uint64
	DecisionsEarly    uint64 // of DecisionsSent: sent early, to order a proposal, publish an awaited ack or release a time-ordered update
	DecisionsAckOnly  uint64 // of DecisionsEarly: sent early only to publish an awaited ack
	DecisionsRelease  uint64 // of DecisionsEarly: sent at a time-ordered update's settle point, to release it
	DecisionsSlotFull uint64 // of DecisionsEarly: ordering decisions held to the next slot edge because the slot's ordinal budget was spent
	Admissions        uint64
	SelfExclusions    uint64 // guard-triggered drops to the join state
	OALReqsSent       uint64 // full-oal baseline requests sent

	// k-successor surveillance gossip (zero when surveillance is off).
	SuspicionsGossiped uint64 // suspicions originated here
	RefutesSent        uint64 // refutes of our own suspicion sent
	GossipRelays       uint64 // fresh gossip messages relayed onward
	GossipDuplicates   uint64 // gossip dropped by the origin watermark
	StaleSuspicions    uint64 // gossip dropped by incarnation staleness
}

// New creates a machine for process self on top of bc.
func New(self model.ProcessID, params model.Params, cfg Config, env Env, bc *broadcast.Broadcast) *Machine {
	if cfg.DeciderHold <= 0 || cfg.DeciderHold >= params.D {
		cfg.DeciderHold = params.D / 2
	}
	if cfg.NFFallbackCycles <= 0 {
		cfg.NFFallbackCycles = 8
	}
	m := &Machine{
		self:          self,
		params:        params,
		cfg:           cfg,
		env:           env,
		bc:            bc,
		fd:            fdetect.New(self, params),
		state:         StateJoin,
		suspect:       model.NoProcess,
		pendingND:     make(map[model.ProcessID]*wire.NoDecision),
		lastJoin:      make(map[model.ProcessID]joinInfo),
		lastReconfig:  make(map[model.ProcessID]reconfigInfo),
		lastAlive:     make(map[model.ProcessID]model.ProcessSet),
		lastStateSent: make(map[model.ProcessID]model.Time),
		lastOALReq:    make(map[model.ProcessID]model.Time),
	}
	// When a fresh application-traffic sample tightens the armed
	// surveillance deadline, pull the expect timer in with it — the
	// whole point of sampling proposals is reacting on the improved
	// bound, not the stale one armed before it.
	m.fd.OnDeadlineTighten(func(_ model.ProcessID, deadline model.Time) {
		m.env.SetTimer(TimerExpect, deadline.Add(1))
	})
	m.initSurveil()
	return m
}

// Accessors.

// State returns the current FSM state.
func (m *Machine) State() State { return m.state }

// Group returns the current group; meaningful only when HaveGroup.
func (m *Machine) Group() model.Group { return m.group }

// HaveGroup reports whether this process has ever installed a group and
// is (or believes itself) a member.
func (m *Machine) HaveGroup() bool { return m.haveGroup }

// IsDecider reports whether this process currently holds the decider
// role.
func (m *Machine) IsDecider() bool { return m.isDecider }

// Detector exposes the failure detector (read-mostly: alive lists).
func (m *Machine) Detector() *fdetect.Detector { return m.fd }

// Stats returns a copy of the machine's counters.
func (m *Machine) Stats() Stats { return m.stats }

// Suspect returns the currently suspected process, or NoProcess.
func (m *Machine) Suspect() model.ProcessID { return m.suspect }

// UpToDate reports whether this process believes its current group is up
// to date — the fail-awareness predicate of the paper's §3: "the
// timewheel membership protocol is fail-aware in the sense that a
// process knows at any point in time if its current group is up-to-date".
//
// The group is up to date while the process is a member and the decision
// rotation (or a single-failure election it is tracking) is live. It is
// NOT up to date while joining, while excluded, or while the time-slotted
// reconfiguration protocol runs — in those periods the member set may be
// changing without this process's knowledge.
func (m *Machine) UpToDate() bool {
	if !m.haveGroup || m.excluded {
		return false
	}
	switch m.state {
	case StateFailureFree, StateWrongSuspicion, State1FailureReceive, State1FailureSend:
		return m.group.Contains(m.self)
	default:
		return false
	}
}

// Start begins protocol execution in the join state.
func (m *Machine) Start() {
	m.seedSeq()
	m.freezeAdvertisement()
	m.scheduleSlotTimer()
}

// Propose broadcasts an update with the given semantics. It returns the
// proposal, or nil if this process is not currently a group member
// (updates from non-members would be purged anyway).
func (m *Machine) Propose(payload []byte, sem oal.Semantics) *wire.Proposal {
	if !m.haveGroup || m.state == StateJoin {
		return nil
	}
	p := m.bc.Propose(m.sendTS(), payload, sem)
	m.broadcast(p)
	m.decideIfOrderable()
	return p
}

// nextGroupSeq produces a globally unique, monotonically increasing
// sequence number for a newly created group: derived from the
// synchronized clock (scaled, plus this process's id for same-tick
// disambiguation), floored above the current group's seq. Uniqueness
// across forks matters: a fork that dies (a racing admission view nobody
// completed) must never share an id with a later group, or histories
// become ambiguous after the fork's members rejoin.
func (m *Machine) nextGroupSeq() model.GroupSeq {
	now := m.env.Now()
	if now < 0 {
		now = 0
	}
	seq := model.GroupSeq(uint64(now))*64 + model.GroupSeq(uint64(m.self)%64)
	if seq <= m.group.Seq {
		seq = m.group.Seq + 1
	}
	return seq
}

// seedSeq seeds the proposal sequence space from the synchronized
// clock: a process that lost its volatile state (crash recovery,
// exclusion reset) must never reuse a sequence number from an earlier
// life. Negative readings (an unsynchronized clock before its first
// correction) clamp to zero.
func (m *Machine) seedSeq() {
	now := m.env.Now()
	if now < 0 {
		now = 0
	}
	m.bc.SeedSeq(uint64(now))
}

// sendTS stamps an outgoing message with a strictly monotonic
// synchronized-clock timestamp.
func (m *Machine) sendTS() model.Time {
	ts := m.env.Now()
	if ts <= m.lastSendTS {
		ts = m.lastSendTS + 1
	}
	m.lastSendTS = ts
	return ts
}

func (m *Machine) setState(to State) {
	if m.state == to {
		return
	}
	from := m.state
	m.state = to
	if to == StateWrongSuspicion {
		m.stats.WrongSuspicions++
	}
	if h := m.cfg.Hooks.StateChange; h != nil {
		h(from, to, m.env.Now())
	}
}

func (m *Machine) setDecider(v bool) {
	if m.isDecider == v {
		return
	}
	m.isDecider = v
	if h := m.cfg.Hooks.Decider; h != nil {
		h(v, m.env.Now())
	}
}

// installGroup makes g the current group and notifies the application.
func (m *Machine) installGroup(g model.Group) {
	m.group = g.Clone()
	m.haveGroup = true
	m.bc.SetGroup(g)
	m.stats.ViewChanges++
	m.refreshSurveil()
	if h := m.cfg.Hooks.ViewChange; h != nil {
		h(m.group, m.env.Now())
	}
}

// clearElection resets single/multi-failure election bookkeeping after a
// successful recovery or a fresh decision.
func (m *Machine) clearElection() {
	m.suspect = model.NoProcess
	m.ndSent = false
	m.pendingND = make(map[model.ProcessID]*wire.NoDecision)
}

// ringSuccessor returns the successor of p in the current group,
// skipping the current suspect (the no-decision ring excludes it).
func (m *Machine) ringSuccessor(p model.ProcessID) model.ProcessID {
	s := m.group.Successor(p)
	if s == m.suspect && m.group.Size() > 1 {
		s = m.group.Successor(s)
	}
	return s
}

// ringPredecessor returns the predecessor of p in the current group,
// skipping the current suspect.
func (m *Machine) ringPredecessor(p model.ProcessID) model.ProcessID {
	s := m.group.Predecessor(p)
	if s == m.suspect && m.group.Size() > 1 {
		s = m.group.Predecessor(s)
	}
	return s
}

// expectAfter arms surveillance for the control message that must follow
// one received from `sender` with timestamp ts: the ring successor must
// produce a control message with a newer timestamp within 2D.
func (m *Machine) expectAfter(sender model.ProcessID, ts model.Time) {
	e := m.ringSuccessor(sender)
	if e == m.self || e == model.NoProcess {
		// Our own turn (the decider duty timer covers us) or a
		// degenerate group: nothing to watch.
		m.fd.ClearExpectation()
		if m.inSingleElection() {
			// No decider duty is coming in these states, and with nobody
			// to watch nothing would ever move this process again. The
			// ring needs at most (N-1)·D to come round or conclude; give
			// the election a whole cycle, then treat it as stalled
			// (onExpectTimeout).
			m.env.SetTimer(TimerExpect, m.env.Now().Add(m.params.CycleLen()))
			return
		}
		m.env.CancelTimer(TimerExpect)
		return
	}
	// Static mode: ts+2D, floored at now+D so a deadline armed while
	// draining a backlog has not effectively already passed. Adaptive
	// mode: the detector grants the expected sender its estimated
	// per-link bound instead (see fdetect.ExpectDeadline).
	deadline := m.fd.ExpectDeadline(e, ts, m.env.Now())
	m.fd.Expect(e, ts, deadline)
	// Fire strictly after the deadline: a message arriving exactly at
	// the deadline is still timely.
	m.env.SetTimer(TimerExpect, deadline.Add(1))
}

// inSingleElection reports whether the machine is in one of the
// single-failure election states. Each of them must have an exit armed —
// an expectation, or the stall deadline expectAfter sets when there is
// nobody to expect — because no timer of their own drives them (join and
// n-failure run on the slot timer, failure-free on the rotation).
func (m *Machine) inSingleElection() bool {
	switch m.state {
	case StateWrongSuspicion, State1FailureReceive, State1FailureSend:
		return true
	}
	return false
}

// scheduleSlotTimer arms TimerSlot for the start of this process's next
// own slot.
func (m *Machine) scheduleSlotTimer() {
	m.env.SetTimer(TimerSlot, m.params.NextSlotOf(m.self, m.env.Now()))
}

func (m *Machine) String() string {
	return fmt.Sprintf("member(%v %v %v decider=%v)", m.self, m.state, m.group, m.isDecider)
}
