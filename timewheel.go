// Package timewheel is the public, real-time API of the timewheel group
// communication service (Mishra, Fetzer & Cristian): a group membership
// protocol for the timed asynchronous system model, plus the timewheel
// atomic broadcast it is woven into.
//
// A Node is one team member. Nodes discover each other and maintain a
// consistent membership view (the "group") entirely through the
// protocol's time-slotted join, single-failure and multiple-failure
// elections; in failure-free operation the membership layer sends no
// messages of its own — the broadcast protocol's rotating decision
// messages double as heartbeats.
//
//	hub := timewheel.NewMemoryHub(timewheel.HubConfig{})
//	n, _ := timewheel.NewNode(timewheel.Config{
//		ID: 0, ClusterSize: 3,
//		Transport: hub.Transport(0),
//		OnDeliver: func(d timewheel.Delivery) { fmt.Println(string(d.Payload)) },
//	})
//	n.Start()
//	...
//	n.Propose([]byte("update"), timewheel.TotalOrder, timewheel.Strong)
//
// The real-time runtime assumes the hosts' clocks are synchronized to
// within Params.Epsilon (NTP-grade). The paper's companion fail-aware
// clock synchronization protocol is implemented and exercised in the
// deterministic simulation (internal/csync, internal/node); wiring it
// under the real-time runtime is deployment-specific plumbing.
package timewheel

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"timewheel/internal/adapt"
	"timewheel/internal/broadcast"
	"timewheel/internal/check"
	"timewheel/internal/core"
	"timewheel/internal/durable"
	"timewheel/internal/engine"
	"timewheel/internal/fdetect"
	"timewheel/internal/guard"
	"timewheel/internal/member"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/obs"
	"timewheel/internal/surveil"
	"timewheel/internal/transport"
	"timewheel/internal/wire"
)

// Order selects the ordering semantic of a proposal.
type Order int

const (
	// Unordered delivery (per-sender FIFO not guaranteed).
	Unordered Order = iota
	// TotalOrder delivers updates in the same total order everywhere.
	TotalOrder
	// TimeOrder delivers updates in synchronized-send-time order.
	TimeOrder
)

// Atomicity selects the atomicity semantic of a proposal.
type Atomicity int

const (
	// Weak atomicity: deliver as soon as possible.
	Weak Atomicity = iota
	// Strong atomicity: deliver after a majority provably holds the
	// update and its dependencies.
	Strong
	// Strict atomicity: deliver after every member provably holds them.
	Strict
)

// Delivery is one update handed to the application.
type Delivery struct {
	// Proposer and Seq identify the update (FIFO per proposer).
	Proposer int
	Seq      uint64
	// Ordinal is the update's unique protocol number (0 before ordering
	// on the weak/unordered fast path).
	Ordinal   uint64
	Payload   []byte
	Order     Order
	Atomicity Atomicity
	// SendTime is the proposer's synchronized-clock send time.
	SendTime time.Time
}

// View is a membership view.
type View struct {
	// Seq numbers views; members of a view agree on its contents.
	Seq uint64
	// Members are the team IDs in the view.
	Members []int
}

// Params are the timed-asynchronous model constants. Zero values take
// defaults suitable for a LAN.
type Params struct {
	// Delta is the one-way message time-out delay.
	Delta time.Duration
	// D is the maximum decider interval.
	D time.Duration
	// Epsilon bounds the deviation between the hosts' clocks.
	Epsilon time.Duration
	// Sigma is the scheduling delay bound.
	Sigma time.Duration
	// SlotPad is extra slack on each election time slot.
	SlotPad time.Duration
}

// Transport carries encoded protocol frames between nodes.
type Transport interface {
	Broadcast(data []byte) error
	Unicast(to int, data []byte) error
	SetReceiver(func(data []byte))
	Close() error
}

// BatchMessage is one destination/datagram pair for BatchSender.
type BatchMessage struct {
	To   int
	Data []byte
}

// BatchSender is an optional Transport extension: ship a whole flush of
// per-destination datagrams in as few syscalls as the platform allows
// (one sendmmsg on linux). Data slices are only borrowed for the call.
// Per-destination failures are omissions — counted by the transport,
// never fatal. Nodes use it automatically when the transport provides
// it; NewUDPTransport's transport does.
type BatchSender interface {
	SendBatch(msgs []BatchMessage) error
}

// EnginePool is a shared worker pool for event dispatch: a fixed set of
// shard goroutines that many nodes' engines multiplex onto via
// Config.Pool/PoolShard. One pool per process (or per fabric node)
// replaces N mostly-idle per-group goroutines with GOMAXPROCS busy
// ones; each node's dispatch remains strictly sequential on its shard.
// Close only after every node using the pool has stopped.
type EnginePool struct {
	p *engine.Pool
}

// NewEnginePool starts a pool with the given shard count (<= 0:
// GOMAXPROCS).
func NewEnginePool(shards int) *EnginePool {
	return &EnginePool{p: engine.NewPool(shards, 4096)}
}

// Shards returns the pool's shard count.
func (ep *EnginePool) Shards() int { return ep.p.Shards() }

// Close stops the shard goroutines after draining their queues.
func (ep *EnginePool) Close() { ep.p.Close() }

// Config configures a Node.
type Config struct {
	// ID is this node's team identifier, 0..ClusterSize-1.
	ID int
	// ClusterSize is the total team size N, at most 64 (an
	// acknowledgement set is one bit per member). Teams of more than six
	// order fewer proposals per decision, so that a decision still fits
	// one datagram (broadcast.ordinalsPerDecision).
	ClusterSize int
	// Transport connects this node to its peers.
	Transport Transport
	// Params tune the timing model (zero: LAN defaults).
	Params Params
	// OnDeliver is called for every delivered update, from the node's
	// event loop: return quickly or hand off.
	OnDeliver func(Delivery)
	// OnViewChange is called on every installed membership view.
	OnViewChange func(View)
	// Termination, when positive, arms the broadcast's termination
	// semantic: OnOutcome fires once per local proposal, either when it
	// is delivered locally or when the window expires undelivered
	// (e.g. the update was purged at a view change).
	Termination time.Duration
	// OnOutcome receives termination reports (event-loop context).
	OnOutcome func(Outcome)
	// Snapshot, when set, provides the application state a decider
	// transfers to joining members; Install receives it on the joining
	// side. Replicated applications need both, or rejoining members
	// start from empty state (deliveries already covered by the
	// snapshot are suppressed on the joiner).
	Snapshot func() []byte
	Install  func([]byte)
	// DataDir, when set, makes the node durable: every delivered update
	// and installed view is appended to a CRC-framed write-ahead log in
	// that directory, application snapshots are written atomically, and
	// after a crash (including kill -9) the node recovers its state
	// from disk before rejoining — warm, fetching only the updates it
	// missed when a current member can serve them from its own log.
	// Recovered deliveries are replayed through Install and OnDeliver
	// before Start. Unset, the node keeps all state in memory and
	// behaves exactly as before. See docs/PERSISTENCE.md.
	DataDir string
	// Fsync selects when log appends reach stable storage: "always",
	// "batched" (default) or "none".
	Fsync string
	// FsyncInterval is the batched-fsync window (default 50ms).
	FsyncInterval time.Duration
	// SnapshotEvery writes a snapshot after that many logged deliveries
	// (default 256). Snapshots capture Config.Snapshot's state; without
	// Snapshot/Install hooks the node is log-only and replays its whole
	// log through OnDeliver on restart.
	SnapshotEvery int
	// Engine selects the event demultiplexer: "loop" (default — the
	// single-threaded event loop the paper's authors chose) or
	// "threaded" (the thread-per-event-type architecture they measured
	// and rejected; kept runnable for comparison).
	Engine string
	// Pool, when set, runs this node's event dispatch on one shard of
	// the shared worker pool instead of a dedicated goroutine — the
	// multi-group fabric's scheduler. Dispatch stays strictly
	// sequential per node (the §3 proofs depend on it); only nodes
	// pinned to different shards run in parallel. Requires Engine ""
	// or "loop". PoolShard selects the shard (taken mod Shards).
	Pool      *EnginePool
	PoolShard int
	// SlotBatch turns on slot-boundary micro-batching: application
	// proposal broadcasts coalesced while handling non-timer events are
	// held and shipped when the next timer-path event or control frame
	// flushes — at the latest at the wheel-slot edge, enforced by a
	// dedicated flush timer. Timer-path events (decisions,
	// no-decisions, expectation handling — all the deadline-bearing
	// traffic fdetect times) flush immediately, so expectation
	// deadlines stay honest; so do control and repair frames (nacks,
	// retransmissions, state, gossip), whose latency the protocol's
	// D-scale repair rate limits assume — held frames ride those
	// flushes for free. Only application payload broadcasts, the
	// highest-volume stream under load, ever wait, and at most one
	// slot. Cuts steady-state datagrams per decision under saturating
	// proposal loads.
	SlotBatch bool
	// Group, when nonzero, tags every outgoing datagram with this
	// group-id (the wire v6 grouped envelope) and accepts only incoming
	// datagrams carrying it — the per-group half of the multi-group
	// fabric (package fabric), which multiplexes many independent
	// timewheel groups over one shared transport. Zero keeps the legacy
	// single-group wire format. Metrics gain a {group="gN"} label.
	Group uint32
	// Guard configures the fail-aware timeliness guard (disabled when
	// zero). See GuardConfig and docs/ROBUSTNESS.md.
	Guard GuardConfig
	// Adaptive configures adaptive fail-aware timeouts (disabled when
	// zero — wire behavior is then identical to a build without the
	// feature). See AdaptiveConfig and docs/ROBUSTNESS.md.
	Adaptive AdaptiveConfig
	// Surveillance configures k-successor surveillance with gossiped
	// suspicions (wire v8): each member watches only K ring successors
	// and failure evidence travels as incarnation-numbered gossip,
	// O(N·K) surveillance traffic instead of all-to-all's O(N²).
	// Disabled when zero — behavior is then identical to the seed
	// protocol. See docs/ROBUSTNESS.md ("Scalable surveillance").
	Surveillance SurveillanceConfig
	// BlackboxDir arms the cluster flight recorder: on a guard trip,
	// self-exclusion, invariant violation, HTTP trigger or explicit
	// DumpBlackbox call, the node writes a self-contained incident
	// bundle (trace ring, metrics, estimator/guard state, profiles)
	// into this directory. Empty with DataDir set defaults to
	// DataDir/blackbox; empty without DataDir disables the recorder.
	// See docs/OBSERVABILITY.md ("Flight recorder").
	BlackboxDir string
	// AuditSample tunes the live invariant auditor's sampled
	// unordered-duplicate check to one in AuditSample deliveries
	// (default 1: every delivery). The monotone §3 checks — FIFO per
	// proposer, total/time-order, view monotonicity, majority views —
	// always run; the auditor itself cannot be disabled and exports
	// timewheel_invariant_violations_total.
	AuditSample int
}

// AdaptiveConfig turns on per-peer timeliness estimation: the failure
// detector's suspicion deadlines follow each link's observed delay
// distribution (clamped between the paper's 2D bound and
// CeilFactor×2D, with hysteresis and flap suppression), and — when the
// guard is enabled — its handler/timer budgets track the host's
// observed scheduling noise instead of static constants. Static
// GuardConfig budgets set explicitly remain explicit overrides. See
// docs/ROBUSTNESS.md ("Adaptive timeouts").
type AdaptiveConfig struct {
	// Enabled turns adaptation on; the remaining fields are ignored
	// when false and default when zero.
	Enabled bool
	// Window is the sample window per estimator (default 128).
	Window int
	// Quantile in (0,1] is the order statistic the bounds derive from
	// (default 0.99).
	Quantile float64
	// Margin multiplies the quantile into a safety bound (default 1.5).
	Margin float64
	// CeilFactor bounds a peer's adaptive suspicion deadline at
	// CeilFactor×2D (default 4) — adaptation stretches deadlines for
	// slow links but crash detection latency stays bounded.
	CeilFactor float64
	// BudgetFloor/BudgetCeil clamp the adaptive guard budgets
	// (defaults 5ms and 2s). The ceiling is also what keeps a
	// chronically degrading host from teaching the guard that its
	// degradation is normal.
	BudgetFloor time.Duration
	BudgetCeil  time.Duration
}

// SurveillanceConfig turns on k-successor surveillance: the member ring
// is hashed onto a ring, each member watches K successors (preferring
// edges the adaptive estimator reports timely), and suspicions/refutes
// travel as duplicate-suppressed gossip relayed to K successors. The
// failure detector switches to partial-view mode: alive-lists are the
// union of direct observation and fresh gossip.
type SurveillanceConfig struct {
	// Enabled turns the subsystem on.
	Enabled bool
	// K is the watch/relay fan-out (default 3).
	K int
}

// AdaptiveStats snapshots the adaptive-timeout estimators. Collected
// from atomics and mutex-protected samplers without touching the event
// loop, so it stays readable during a stall.
type AdaptiveStats struct {
	// Enabled mirrors Config.Adaptive.Enabled.
	Enabled bool
	// Widened/Shrunk count per-peer deadline-grant moves; FlapBoosts
	// counts post-suspicion flap-suppression pins.
	Widened    uint64
	Shrunk     uint64
	FlapBoosts uint64
	// ExpectOverwrites counts failure-detector expectations replaced
	// while still armed (tracked even with adaptation off).
	ExpectOverwrites uint64
	// AppSamples counts application-broadcast (proposal) delay
	// observations fed to the estimator; DeadlineTightenings counts
	// armed surveillance deadlines pulled earlier by one of them.
	AppSamples          uint64
	DeadlineTightenings uint64
	// HandlerBudget/TimerLateBudget are the guard budgets currently in
	// force (adaptive when a source drives them); the Static* fields
	// are what the static configuration would have used.
	HandlerBudget         time.Duration
	TimerLateBudget       time.Duration
	StaticHandlerBudget   time.Duration
	StaticTimerLateBudget time.Duration
	// NoiseHandler/NoiseLateness are the smoothed (EWMA) scheduling-
	// noise estimates.
	NoiseHandler  time.Duration
	NoiseLateness time.Duration
	// PeerDeadlineSpans maps peer ID to its current adaptive deadline
	// grant (the span added to "now" when arming surveillance on it).
	PeerDeadlineSpans map[int]time.Duration
}

// GuardConfig configures the node's local performance-failure detector
// (the fail-awareness the timed asynchronous model demands: a process
// whose own scheduling or clock has failed must know, and must not emit
// late control messages as if it were timely). See docs/ROBUSTNESS.md.
type GuardConfig struct {
	// Enabled turns the guard on; the remaining fields are ignored when
	// false.
	Enabled bool
	// HandlerBudget bounds one event handler's wall-clock time
	// (default 100ms; negative disables the check).
	HandlerBudget time.Duration
	// TimerLateBudget bounds how far past its armed deadline a timer
	// event may be dispatched — covering OS timer slip and queueing
	// behind a stalled handler (default 100ms; negative disables).
	TimerLateBudget time.Duration
	// ClockJumpMax bounds wall-vs-monotonic clock divergence between
	// consecutive events (default 1s; negative disables).
	ClockJumpMax time.Duration
	// TripCount violations within TripWindow trip the guard
	// (defaults 3 within 1s).
	TripCount  int
	TripWindow time.Duration
	// Enforce makes a trip act: the node self-excludes — suppresses
	// outgoing control messages, abandons any in-progress decision, and
	// drops to the join state to rejoin warm. False is observe-only:
	// violations and the late control sends they would have suppressed
	// are only counted (GuardStats.LateSends).
	Enforce bool
}

// GuardStats is a snapshot of the guard's counters plus the engine's
// queue-overflow count. It is collected lock-free from atomics, so it
// is readable even while the node's event goroutine is stalled — which
// is exactly when it is most interesting.
type GuardStats struct {
	Overruns        uint64 // handlers that blew HandlerBudget
	LateTimers      uint64 // timer events dispatched > TimerLateBudget late
	ClockJumps      uint64 // wall-vs-monotonic discontinuities
	SelfExclusions  uint64 // guard trips acted on (Enforce)
	SuppressedSends uint64 // control messages withheld while tripped
	LateSends       uint64 // control messages let through while tripped (observe-only)
	QueueDrops      uint64 // events rejected by the engine's full queue
	Trips           uint64 // armed-to-tripped transitions
	Tripped         bool   // currently tripped (Enforce) or ever tripped (observe)
}

// Outcome is a termination report for a local proposal.
type Outcome struct {
	Seq       uint64
	Delivered bool
}

// ErrNotMember is returned by Propose when the node is not currently a
// group member.
var ErrNotMember = errors.New("timewheel: not a group member")

// ErrStopped is returned after Stop.
var ErrStopped = errors.New("timewheel: node stopped")

// Node is one running timewheel process.
type Node struct {
	cfg    Config
	params model.Params

	core  *core.Core
	loop  engine.Engine
	tr    Transport
	guard *guard.Guard // nil when Config.Guard.Enabled is false
	obs   *nodeObs     // live metrics registry + trace taps (always set)

	// auditor streams every delivery and view install through the live
	// §3 invariant checks (always set); bboxDir/bboxLast drive the
	// flight recorder (bboxDir empty: recorder disabled), and bboxDumps
	// counts its automatic dumps in flight, which Stop waits for.
	auditor   *check.Auditor
	bboxDir   string
	bboxLast  atomic.Int64
	bboxDumps sync.WaitGroup

	// Adaptive-timeout estimators (nil when Config.Adaptive.Enabled is
	// false). adaptDelay feeds the failure detector per-peer delay
	// bounds; adaptNoise feeds the guard its budgets and is sampled
	// from handle(). adaptCeil caps the noise samples accepted when no
	// guard supplies an effective budget.
	adaptDelay *adapt.DelayEstimator
	adaptNoise *adapt.NoiseEstimator
	adaptCeil  time.Duration

	// store is the durable store (nil without Config.DataDir), bound to
	// the protocol by the core; recovery reports what it held at startup.
	store    *durable.Store
	recovery RecoveryReport

	// Send coalescing (event-loop confined): every control frame
	// produced while handling one event is encoded straight into a
	// per-destination coalescer's reusable buffer; handle() flushes
	// them as one datagram per destination after dispatch — no
	// per-message allocation or syscall on the hot send path.
	coBcast wire.Coalescer
	coUni   map[int]*wire.Coalescer
	coDests []int

	// Batched syscall path (set when the transport is a BatchSender):
	// flushSends ships all pending unicast datagrams through one
	// SendBatch call into batchBuf's reused backing array.
	batch    BatchSender
	batchBuf []BatchMessage

	// Slot-boundary micro-batching (Config.SlotBatch). flushArmed is
	// event-loop confined; flushTimer is guarded by mu (armed from the
	// loop, stopped from Stop). sendErrs counts whole-flush failures
	// for transports that do not track their own send errors;
	// trSendErrs reads the transport's counter when it does.
	flushArmed bool
	// flushUrgent marks that the event being handled emitted a control
	// or repair frame: the handler-end flush runs even in SlotBatch
	// mode (event-loop confined, cleared by flushSends).
	flushUrgent bool
	flushTimer  *time.Timer
	sendErrs    atomic.Uint64
	trSendErrs  func() uint64

	mu      sync.Mutex
	timers  map[member.TimerID]*time.Timer
	stopped bool

	// histMu guards the membership history the live invariant checks
	// consume (written from the event goroutine, read from anywhere).
	histMu       sync.Mutex
	views        []ViewEvent
	tenures      []DeciderTenure
	deciderSent  uint64 // DecisionsSent at tenure start, for Sent marking
	deciderEarly uint64 // DecisionsEarly at tenure start, for the trace event's payload
	deciderAck   uint64 // DecisionsAckOnly at tenure start, likewise
	deciderRel   uint64 // DecisionsRelease at tenure start, likewise
}

// ViewEvent is one view installation in the node's recorded history,
// stamped with the local wall clock.
type ViewEvent struct {
	Seq     uint64
	Members []int
	At      time.Time
}

// DeciderTenure is one interval during which the node held the decider
// role. Open tenures have End equal to the History() snapshot time and
// Open true. Sent records whether the tenure produced a decision; a
// decider-elect relinquishing on a fresher in-flight decision is a
// benign non-sending tenure.
type DeciderTenure struct {
	Start, End time.Time
	Sent       bool
	Open       bool
}

// History snapshots the node's recorded view installations and decider
// tenures — the inputs the live-cluster invariant checks
// (internal/check's Live* validators) need from real running nodes.
func (n *Node) History() (views []ViewEvent, tenures []DeciderTenure) {
	n.histMu.Lock()
	defer n.histMu.Unlock()
	views = append(views, n.views...)
	now := time.Now()
	for _, t := range n.tenures {
		if t.End.IsZero() {
			t.End, t.Open = now, true
		}
		tenures = append(tenures, t)
	}
	return views, tenures
}

// RecoveryReport summarises what a durable node loaded from disk at
// startup.
type RecoveryReport struct {
	// Durable reports whether the node has a data directory at all.
	Durable bool
	// HaveSnapshot reports whether a valid snapshot was loaded.
	HaveSnapshot bool
	// LoggedUpdates and LoggedViews count the valid log records
	// replayed on top of the snapshot.
	LoggedUpdates int
	LoggedViews   int
	// Covered is the contiguous ordinal prefix the recovered state
	// includes — what the node advertises for a delta rejoin.
	Covered uint64
	// Lineage is the ordinal space Covered belongs to.
	Lineage uint64
	// TornTail reports that a torn final record was truncated away (the
	// expected shape after a crash mid-append).
	TornTail bool
	// Discarded notes data that failed validation; empty means a fully
	// clean recovery.
	Discarded []string
}

func (p Params) toModel(n int) model.Params {
	mp := model.DefaultParams(n)
	if p.Delta > 0 {
		mp.Delta = model.FromStd(p.Delta)
	}
	if p.D > 0 {
		mp.D = model.FromStd(p.D)
	}
	if p.Epsilon > 0 {
		mp.Epsilon = model.FromStd(p.Epsilon)
	}
	if p.Sigma > 0 {
		mp.Sigma = model.FromStd(p.Sigma)
	}
	if p.SlotPad > 0 {
		mp.SlotPad = model.FromStd(p.SlotPad)
	}
	return mp
}

// NewNode builds a node; call Start to join the team.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ClusterSize < 1 || cfg.ClusterSize > oal.MaxProcesses {
		return nil, fmt.Errorf("timewheel: ClusterSize must be in [1,%d], got %d", oal.MaxProcesses, cfg.ClusterSize)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.ClusterSize {
		return nil, fmt.Errorf("timewheel: ID %d out of range [0,%d)", cfg.ID, cfg.ClusterSize)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("timewheel: Transport is required")
	}
	mp := cfg.Params.toModel(cfg.ClusterSize)
	if err := mp.Validate(); err != nil {
		return nil, err
	}

	n := &Node{
		cfg:    cfg,
		params: mp,
		tr:     cfg.Transport,
		timers: make(map[member.TimerID]*time.Timer),
		coUni:  make(map[int]*wire.Coalescer),
	}
	n.coBcast.SetGroup(cfg.Group)
	n.batch, _ = cfg.Transport.(BatchSender)
	if se, ok := cfg.Transport.(interface{ SendErrors() uint64 }); ok {
		n.trSendErrs = se.SendErrors
	}
	n.obs = newNodeObs(n)
	if n.bboxDir = cfg.BlackboxDir; n.bboxDir == "" && cfg.DataDir != "" {
		n.bboxDir = filepath.Join(cfg.DataDir, "blackbox")
	}
	if n.bboxDir != "" {
		// A flight recorder without a populated trace ring is useless:
		// arming it turns ring recording on for the process lifetime
		// (same one-ring-write cost as having /debug/events attached).
		tracer.EnableRing()
	}
	n.auditor = check.NewAuditor(check.AuditorConfig{
		N:      cfg.ClusterSize,
		Sample: cfg.AuditSample,
		OnViolation: func(inv, detail string) {
			n.obs.emit(obs.EvInvariant, invariantCode(inv), 0)
			n.triggerBlackbox("invariant-" + inv)
		},
	})
	var rec *durable.Recovery
	if cfg.DataDir != "" {
		policy, err := durable.ParseFsyncPolicy(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		n.store, rec, err = durable.Open(durable.Options{
			Dir:           cfg.DataDir,
			Policy:        policy,
			BatchInterval: cfg.FsyncInterval,
			ObserveSync: func(d time.Duration) {
				n.obs.fsyncLat.ObserveDuration(d)
				n.obs.emit(obs.EvWALSync, int64(d), 0)
			},
			ObserveSnapshot: func(bytes int) {
				n.obs.snapBytes.Observe(int64(bytes))
				n.obs.emit(obs.EvSnapshot, int64(bytes), 0)
			},
			ObserveReplay: func(records int) {
				n.obs.replaySize.Observe(int64(records))
			},
		})
		if err != nil {
			return nil, err
		}
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 256
	}
	bcfg := broadcast.Config{
		Snapshot: cfg.Snapshot,
		Install:  cfg.Install,
		OnDeliver: func(d broadcast.Delivery) {
			if lag := time.Now().UnixMicro() - int64(d.SendTS); lag > 0 {
				n.obs.deliveryLag.Observe(lag * int64(time.Microsecond))
			}
			n.auditor.ObserveDeliver(d.ID, d.Ordinal, d.Sem, d.SendTS)
			n.obs.emit(obs.EvDeliver, int64(d.Ordinal),
				obs.PackProposalID(uint32(d.ID.Proposer), d.ID.Seq))
			if cfg.OnDeliver != nil {
				cfg.OnDeliver(toDelivery(d))
			}
		},
	}
	if cfg.Termination > 0 {
		bcfg.TerminationAfter = model.FromStd(cfg.Termination)
		bcfg.OnOutcome = func(o broadcast.Outcome) {
			if cfg.OnOutcome != nil {
				cfg.OnOutcome(Outcome{Seq: o.ID.Seq, Delivered: o.Delivered})
			}
		}
	}
	var scfg surveil.Config
	if cfg.Surveillance.Enabled {
		scfg.K = cfg.Surveillance.K
		if scfg.K <= 0 {
			scfg.K = 3
		}
	}
	n.core = core.New(core.Config{
		ID:            model.ProcessID(cfg.ID),
		Params:        mp,
		Env:           (*nodeEnv)(n),
		Broadcast:     bcfg,
		Member:        member.Config{Surveillance: scfg, Hooks: n.hooks()},
		Store:         n.store,
		SnapshotEvery: snapEvery,
	})
	if rec != nil {
		n.recovery = RecoveryReport{
			Durable:       true,
			HaveSnapshot:  rec.HaveSnapshot,
			LoggedUpdates: len(rec.Updates),
			LoggedViews:   len(rec.Views),
			Covered:       uint64(rec.AdvertisedCoverage()),
			Lineage:       uint64(rec.Lineage()),
			TornTail:      rec.TornTail,
			Discarded:     rec.Discarded,
		}
		var replay func(broadcast.Delivery)
		if cfg.OnDeliver != nil {
			replay = func(d broadcast.Delivery) { cfg.OnDeliver(toDelivery(d)) }
		}
		// Recovered deliveries reach the application through Install and
		// OnDeliver before Start, and are never delivered again.
		n.core.Restore(rec, cfg.Install, replay)
	}
	// Expectation-overwrite accounting is observability, not adaptation:
	// wired whether or not Adaptive is on.
	n.core.Machine().Detector().OnExpectOverwrite(func(old, next model.ProcessID) {
		n.obs.emit(obs.EvExpectOverwrite, int64(old), int64(next))
	})
	if cfg.Adaptive.Enabled {
		acfg := adapt.Config{
			Window:   cfg.Adaptive.Window,
			Quantile: cfg.Adaptive.Quantile,
			Margin:   cfg.Adaptive.Margin,
		}
		n.adaptDelay = adapt.NewDelayEstimator(acfg)
		n.adaptNoise = adapt.NewNoiseEstimator(acfg, cfg.Adaptive.BudgetFloor, cfg.Adaptive.BudgetCeil)
		if n.adaptCeil = cfg.Adaptive.BudgetCeil; n.adaptCeil <= 0 {
			n.adaptCeil = 2 * time.Second
		}
		n.core.EnableAdaptive(n.adaptDelay, fdetect.AdaptiveConfig{CeilFactor: cfg.Adaptive.CeilFactor})
	}
	if cfg.Guard.Enabled {
		gcfg := guard.Config{
			HandlerBudget:   cfg.Guard.HandlerBudget,
			TimerLateBudget: cfg.Guard.TimerLateBudget,
			ClockJumpMax:    cfg.Guard.ClockJumpMax,
			TripCount:       cfg.Guard.TripCount,
			TripWindow:      cfg.Guard.TripWindow,
			Enforce:         cfg.Guard.Enforce,
		}
		if n.adaptNoise != nil {
			gcfg.Budgets = n.adaptNoise
		}
		n.guard = guard.New(gcfg)
		n.guard.OnTrip(func() {
			n.obs.emit(obs.EvGuardTrip, 0, 0)
			n.triggerBlackbox("guard-trip")
		})
	}
	n.obs.registerAdaptive(n)

	switch {
	case cfg.Pool != nil:
		if cfg.Engine != "" && cfg.Engine != "loop" {
			return nil, fmt.Errorf("timewheel: Engine %q cannot combine with Pool (sharded dispatch is loop-semantics)", cfg.Engine)
		}
		n.loop = cfg.Pool.p.Engine(cfg.PoolShard, n.handle)
	case cfg.Engine == "" || cfg.Engine == "loop":
		n.loop = engine.NewEventLoop(n.handle, 4096)
	case cfg.Engine == "threaded":
		n.loop = engine.NewThreaded(n.handle, 512)
	default:
		return nil, fmt.Errorf("timewheel: unknown engine %q (want \"loop\" or \"threaded\")", cfg.Engine)
	}
	recvFrame := func(data []byte) {
		msg, err := wire.Decode(data)
		if err != nil {
			n.obs.recvDrops.Inc()
			return // corrupt frame: drop, as UDP would
		}
		hdr := msg.Hdr()
		n.obs.onRecv(hdr.From, hdr.SendTS)
		// A full queue drops the message — an in-model omission failure,
		// counted in GuardStats.QueueDrops — rather than blocking the
		// transport's receive goroutine behind a slow protocol core.
		if !n.post(engine.Event{Type: engine.TypeOfMessage(msg), Msg: msg}) {
			n.obs.recvDrops.Inc()
			n.obs.emit(obs.EvQueueDrop, int64(msg.Kind()), 0)
		}
	}
	cfg.Transport.SetReceiver(func(data []byte) {
		if wire.IsGrouped(data) {
			// A group-tagged datagram (wire v6). A fabric demux
			// normally routes these and delivers bare sub-frames, but a
			// grouped node on a plain transport must still filter: only
			// its own group's frames may enter the engine.
			if gid, ok := wire.GroupOf(data); !ok || gid != cfg.Group {
				n.obs.recvDrops.Inc()
				return
			}
			if wire.SplitGrouped(data, recvFrame) != nil {
				n.obs.recvDrops.Inc() // malformed envelope
			}
			return
		}
		if wire.IsCoalesced(data) {
			// A coalesced datagram: each sub-frame decodes (and fails
			// CRC) independently. Decode copies what it keeps, so the
			// borrowed transport buffer is released on return.
			if wire.SplitCoalesced(data, recvFrame) != nil {
				n.obs.recvDrops.Inc() // malformed envelope
			}
			return
		}
		recvFrame(data)
	})
	registerExpvar(n)
	return n, nil
}

// toDelivery converts a broadcast-layer delivery to the public type.
func toDelivery(d broadcast.Delivery) Delivery {
	return Delivery{
		Proposer:  int(d.ID.Proposer),
		Seq:       d.ID.Seq,
		Ordinal:   uint64(d.Ordinal),
		Payload:   d.Payload,
		Order:     Order(d.Sem.Order),
		Atomicity: Atomicity(d.Sem.Atomicity),
		SendTime:  time.UnixMicro(int64(d.SendTS)),
	}
}

// hooks attaches the node's observability, live invariant auditing
// and membership history to the group creator.
func (n *Node) hooks() member.Hooks {
	return member.Hooks{
		StateChange: func(from, to member.State, _ model.Time) {
			n.obs.onStateChange(from, to)
			if to == member.StateJoin && from != member.StateJoin {
				// Dropping back to join restarts the delivery stream
				// (the broadcast layer resets; the join-time transfer
				// re-establishes it): the auditor's ordering floors
				// restart with it.
				n.auditor.ResetIncarnation()
			}
		},
		Suspicion: func(suspect model.ProcessID, deadline, now model.Time) {
			n.obs.onSuspicion(suspect, deadline, now)
		},
		ViewChange: func(g model.Group, _ model.Time) {
			n.obs.onViewChange(g)
			n.auditor.ObserveView(uint64(g.Seq), len(g.Members))
			ve := ViewEvent{Seq: uint64(g.Seq), At: time.Now()}
			for _, m := range g.Members {
				ve.Members = append(ve.Members, int(m))
			}
			n.histMu.Lock()
			n.views = append(n.views, ve)
			n.histMu.Unlock()
			if n.cfg.OnViewChange != nil {
				n.cfg.OnViewChange(View{Seq: ve.Seq, Members: ve.Members})
			}
		},
		Decider: func(isDecider bool, _ model.Time) {
			at := time.Now()
			sent, how := false, int64(obs.DeciderHeld)
			ms := n.core.Machine().Stats()
			n.histMu.Lock()
			if isDecider {
				n.tenures = append(n.tenures, DeciderTenure{Start: at})
				n.deciderSent, n.deciderEarly, n.deciderAck, n.deciderRel = ms.DecisionsSent, ms.DecisionsEarly, ms.DecisionsAckOnly, ms.DecisionsRelease
			} else if k := len(n.tenures) - 1; k >= 0 && n.tenures[k].End.IsZero() {
				n.tenures[k].End = at
				sent = ms.DecisionsSent > n.deciderSent
				switch {
				case ms.DecisionsAckOnly > n.deciderAck:
					how = obs.DeciderEarlyAckOnly
				case ms.DecisionsRelease > n.deciderRel:
					how = obs.DeciderEarlyRelease
				case ms.DecisionsEarly > n.deciderEarly:
					how = obs.DeciderEarlyOrdering
				}
				n.tenures[k].Sent = sent
			}
			n.histMu.Unlock()
			n.obs.onDecider(isDecider, sent, how)
		},
		WireEvent: func(dir member.WireDir, kind wire.Kind, peer model.ProcessID, ctx wire.Causal, _ model.Time) {
			n.obs.onWireEvent(dir, kind, peer, ctx)
		},
	}
}

// Recovery returns the startup recovery report; Durable is false when
// the node has no data directory.
func (n *Node) Recovery() RecoveryReport { return n.recovery }

// ErrNotDurable is returned by Checkpoint on a node without a data
// directory or without a Snapshot hook (nothing to checkpoint).
var ErrNotDurable = errors.New("timewheel: node is not durable")

// Checkpoint forces a durable snapshot of the application state right
// now, independent of the SnapshotEvery cadence, and syncs the log. It
// round-trips through the event loop so the image is consistent with
// the delivery stream. The group-move rebalancer (fabric.MoveGroup)
// uses it to fix a transfer base on the source replica; everything
// delivered after the checkpoint reaches the destination as a replay
// delta through the normal rejoin machinery.
func (n *Node) Checkpoint() error {
	if n.store == nil || n.cfg.Snapshot == nil {
		return ErrNotDurable
	}
	return call(n, ErrStopped, func() error {
		n.core.WriteSnapshot()
		return n.store.Sync()
	})
}

// call runs f on the event loop and returns its result, or fallback
// when the node is stopped or the loop does not answer within 5 s.
func call[T any](n *Node, fallback T, f func() T) T {
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return fallback
	}
	ch := make(chan T, 1)
	n.post(engine.Event{Type: engine.EvCommand, Cmd: func() { ch <- f() }})
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		return fallback
	}
}

// handle runs inside the event loop; all protocol state is confined to
// it. With a guard configured, every event is bracketed by the
// performance-failure checks: clock discontinuity and timer lateness
// before dispatch, handler overrun after, and — when a sustained
// violation has tripped the guard under Enforce — self-exclusion.
func (n *Node) handle(ev engine.Event) {
	start := time.Now()
	if !ev.Due.IsZero() {
		if late := start.Sub(ev.Due); late > 0 {
			n.obs.timerLateness.ObserveDuration(late)
		}
	}
	g := n.guard
	if g != nil {
		g.NoteClock(start)
		g.NoteTimerFired(start, ev.Due)
	}
	n.dispatch(ev)
	// Slot-boundary micro-batching: timer-path events (Due set) carry
	// the deadline-bearing traffic and always flush, as does any event
	// that emitted a control or repair frame (flushUrgent); only
	// application proposal broadcasts are held for the next flush —
	// bounded by the slot-edge flush timer, so nothing crosses a slot
	// boundary.
	if !n.cfg.SlotBatch || !ev.Due.IsZero() || n.flushUrgent {
		n.flushSends()
	} else if n.coBcast.Count() > 0 || len(n.coDests) > 0 {
		n.obs.slotbatchHeld.Inc()
		n.armFlushTimer()
	}
	end := time.Now()
	n.obs.handlerLatency.ObserveDuration(end.Sub(start))
	if g != nil {
		g.NoteHandlerDone(start, end)
		if g.Tripped() && g.Config().Enforce {
			n.selfExclude()
		}
	}
	n.sampleNoise(ev, start, end)
}

// sampleNoise feeds the scheduling-noise estimator from the event just
// handled: timer lateness and queue wait into the lateness sampler,
// handler duration into the handler sampler. Samples beyond the budget
// currently in force are excluded — a genuine stall must trip the
// guard, not teach the estimator that stalls are normal (chronic
// degradation is instead bounded by the estimator's ceiling).
func (n *Node) sampleNoise(ev engine.Event, start, end time.Time) {
	ne := n.adaptNoise
	if ne == nil {
		return
	}
	handlerLimit, latenessLimit := n.adaptCeil, n.adaptCeil
	if n.guard != nil {
		handlerLimit, latenessLimit = n.guard.EffectiveBudgets()
	}
	if !ev.Due.IsZero() {
		late := start.Sub(ev.Due)
		if late < 0 {
			late = 0
		}
		if late <= latenessLimit {
			ne.ObserveLateness(late)
		}
	} else if !ev.Posted.IsZero() {
		// Non-timer events have no deadline; their queue wait is the
		// congestion half of the same scheduling-noise signal.
		if wait := start.Sub(ev.Posted); wait >= 0 && wait <= latenessLimit {
			ne.ObserveLateness(wait)
		}
	}
	if dur := end.Sub(start); dur <= handlerLimit {
		ne.ObserveHandler(dur)
	}
}

func (n *Node) dispatch(ev engine.Event) {
	switch {
	case ev.Msg != nil:
		n.core.Machine().OnMessage(ev.Msg)
	case ev.Cmd != nil:
		ev.Cmd()
	default:
		n.core.Machine().OnTimer(ev.Timer)
	}
}

// selfExclude acts on a guard trip (event-goroutine context): the
// machine drops to the join state via the warm-rejoin path — its
// broadcast image survives the reset, so the join advertises real
// coverage and a current member can serve a delta instead of a full
// state transfer — and the guard is rearmed with a grace window so the
// backlog of stale lateness drained right after the stall does not
// immediately re-trip it.
func (n *Node) selfExclude() {
	if n.core.Machine().State() != member.StateJoin {
		n.core.Machine().SelfExclude()
		n.guard.NoteSelfExclusion()
		n.obs.emit(obs.EvSelfExclude, 0, 0)
		n.triggerBlackbox("self-exclude")
	}
	n.guard.Rearm(time.Now())
	n.obs.emit(obs.EvGuardRearm, 0, 0)
}

// post hands an event to the engine; false means it was dropped (node
// stopped, or queue full — the latter counted in GuardStats.QueueDrops).
func (n *Node) post(ev engine.Event) bool {
	if n.adaptNoise != nil && ev.Posted.IsZero() {
		ev.Posted = time.Now() // queue-wait sampling (adaptive mode only)
	}
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return false
	}
	return n.loop.Post(ev)
}

// Start begins protocol execution: the node enters the join state and
// sends join messages in its time slots.
func (n *Node) Start() {
	n.post(engine.Event{Type: engine.EvCommand, Cmd: n.core.Machine().Start})
}

// Stop shuts the node down.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	for _, t := range n.timers {
		t.Stop()
	}
	if n.flushTimer != nil {
		n.flushTimer.Stop()
	}
	n.mu.Unlock()
	n.loop.Stop()
	n.tr.Close()
	n.bboxDumps.Wait()
	if n.store != nil {
		n.store.Close() //nolint:errcheck // final flush; nothing to do on error
	}
	unregisterExpvar(n)
}

// Propose broadcasts an update with the given semantics. It blocks until
// the node's event loop has accepted (or refused) the proposal.
func (n *Node) Propose(payload []byte, o Order, a Atomicity) error {
	_, err := n.ProposeSeq(payload, o, a, nil)
	return err
}

// ProposeSeq broadcasts an update like Propose and additionally reports
// the per-proposer sequence number assigned to it — the key by which
// termination outcomes (Config.OnOutcome) identify it. register, when
// non-nil, runs on the node's event loop after the sequence is known and
// strictly before any outcome for it can fire, closing the registration
// race for request/response layers (see package rsm).
func (n *Node) ProposeSeq(payload []byte, o Order, a Atomicity, register func(seq uint64)) (uint64, error) {
	type resp struct {
		seq uint64
		err error
	}
	r := call(n, resp{err: ErrStopped}, func() resp {
		p := n.core.Machine().Propose(payload, oal.Semantics{Order: oal.Order(o), Atomicity: oal.Atomicity(a)})
		if p == nil {
			return resp{err: ErrNotMember}
		}
		if register != nil {
			register(p.ID.Seq)
		}
		return resp{seq: p.ID.Seq}
	})
	return r.seq, r.err
}

// CurrentView returns the node's membership view; ok is false while the
// node is (re)joining.
func (n *Node) CurrentView() (View, bool) {
	type resp struct {
		v  View
		ok bool
	}
	r := call(n, resp{}, func() resp {
		g, ok := n.core.View()
		v := View{Seq: uint64(g.Seq)}
		for _, m := range g.Members {
			v.Members = append(v.Members, int(m))
		}
		return resp{v, ok}
	})
	return r.v, r.ok
}

// UpToDate reports the paper's fail-awareness predicate: whether this
// process currently knows its view to be up to date.
func (n *Node) UpToDate() bool {
	return call(n, false, n.core.Machine().UpToDate)
}

// Metrics is a point-in-time snapshot of a node's protocol counters.
type Metrics struct {
	// Membership-layer counters.
	ViewChanges       uint64
	SingleElections   uint64
	ReconfigElections uint64
	WrongSuspicions   uint64
	NoDecisionsSent   uint64
	ReconfigsSent     uint64
	JoinsSent         uint64
	DecisionsSent     uint64
	DecisionsEarly    uint64 // of DecisionsSent: sent without the idle hold, to order a proposal, publish an ack a Strong/Strict delivery awaits, or release a time-ordered update at its settle point
	Admissions        uint64
	SelfExclusions    uint64
	// Broadcast-layer counters.
	Proposed      uint64
	Delivered     uint64
	DeliveredFast uint64
	Purged        uint64
	Retransmits   uint64
	// State-transfer counters: full snapshots vs. rejoin deltas served
	// to joiners, and replayed delta entries applied on this node.
	StateFulls    uint64
	StateDeltas   uint64
	ReplayApplied uint64
}

// Metrics returns a snapshot of the node's protocol counters.
func (n *Node) Metrics() Metrics {
	return call(n, Metrics{}, func() Metrics {
		ms := n.core.Machine().Stats()
		bs := n.core.Broadcast().Stats()
		return Metrics{
			ViewChanges:       ms.ViewChanges,
			SingleElections:   ms.SingleElections,
			ReconfigElections: ms.ReconfigElections,
			WrongSuspicions:   ms.WrongSuspicions,
			NoDecisionsSent:   ms.NDsSent,
			ReconfigsSent:     ms.ReconfigsSent,
			JoinsSent:         ms.JoinsSent,
			DecisionsSent:     ms.DecisionsSent,
			DecisionsEarly:    ms.DecisionsEarly,
			Admissions:        ms.Admissions,
			SelfExclusions:    ms.SelfExclusions,
			Proposed:          bs.Proposed,
			Delivered:         bs.Delivered,
			DeliveredFast:     bs.DeliveredFast,
			Purged:            bs.Purged,
			Retransmits:       bs.Retransmits,
			StateFulls:        bs.StateFulls,
			StateDeltas:       bs.StateDeltas,
			ReplayApplied:     bs.ReplayApplied,
		}
	})
}

// GuardStats snapshots the timeliness guard's counters plus the
// engine's queue-overflow count. Unlike Metrics, it does not round-trip
// through the event loop: it reads atomics, so it stays available while
// the event goroutine is stalled — the condition it exists to observe.
func (n *Node) GuardStats() GuardStats {
	var s GuardStats
	if n.guard != nil {
		gs := n.guard.Stats()
		s = GuardStats{
			Overruns:        gs.Overruns,
			LateTimers:      gs.LateTimers,
			ClockJumps:      gs.ClockJumps,
			SelfExclusions:  gs.SelfExclusions,
			SuppressedSends: gs.SuppressedSends,
			LateSends:       gs.LateSends,
			Trips:           gs.Trips,
			Tripped:         gs.Tripped,
		}
	}
	s.QueueDrops = n.loop.Dropped()
	return s
}

// AdaptiveStats snapshots the adaptive-timeout layer. Like GuardStats
// it reads atomics and samplers directly — no event-loop round-trip —
// so it stays available mid-stall. With Adaptive disabled only the
// ExpectOverwrites counter is live.
func (n *Node) AdaptiveStats() AdaptiveStats {
	det := n.core.Machine().Detector()
	as := det.AdaptStats()
	s := AdaptiveStats{
		Enabled:          n.cfg.Adaptive.Enabled,
		Widened:          as.Widened,
		Shrunk:           as.Shrunk,
		FlapBoosts:       as.FlapBoosts,
		ExpectOverwrites: as.ExpectOverwrites,

		AppSamples:          as.AppSamples,
		DeadlineTightenings: as.DeadlineTightenings,
	}
	if n.guard != nil {
		s.HandlerBudget, s.TimerLateBudget = n.guard.EffectiveBudgets()
		gc := n.guard.Config()
		s.StaticHandlerBudget, s.StaticTimerLateBudget = gc.HandlerBudget, gc.TimerLateBudget
	}
	if n.adaptNoise != nil {
		s.NoiseHandler = n.adaptNoise.HandlerEstimate()
		s.NoiseLateness = n.adaptNoise.LatenessEstimate()
	}
	if n.adaptDelay != nil {
		s.PeerDeadlineSpans = make(map[int]time.Duration)
		for _, p := range n.adaptDelay.Peers() {
			if span := det.DeadlineSpan(model.ProcessID(p)); span > 0 {
				s.PeerDeadlineSpans[p] = span.Std()
			}
		}
	}
	return s
}

// InjectStall occupies the node's event goroutine for d — a synthetic
// scheduling stall (the live analogue of a GC pause or a preempted
// process) for tests and chaos runs. It returns immediately; the stall
// happens when the event is dispatched.
func (n *Node) InjectStall(d time.Duration) {
	n.post(engine.Event{Type: engine.EvCommand, Cmd: func() { time.Sleep(d) }})
}

// StateName returns the group creator's current state (join,
// failure-free, wrong-suspicion, 1-failure-receive, 1-failure-send,
// n-failure) — mainly for monitoring.
func (n *Node) StateName() string {
	return call(n, "stopped", func() string { return n.core.Machine().State().String() })
}

// nodeEnv adapts Node to member.Env. It runs inside the event loop.
type nodeEnv Node

func (e *nodeEnv) Now() model.Time { return model.Time(time.Now().UnixMicro()) }

func (e *nodeEnv) Broadcast(m wire.Message) {
	n := (*Node)(e)
	if n.guard != nil && !n.guard.AllowControlSend() {
		return // tripped under Enforce: a fail-aware process goes silent
	}
	n.obs.sends.Inc()
	if m.Kind() != wire.KindProposal {
		// Control frames keep per-event latency (SlotBatch holds only
		// application payload broadcasts): flush at handler end, with
		// whatever was held riding along.
		n.flushUrgent = true
	}
	if !n.coBcast.TryAppend(m) {
		n.flushBroadcast()
		n.coBcast.TryAppend(m)
	}
}

func (e *nodeEnv) Unicast(to model.ProcessID, m wire.Message) {
	n := (*Node)(e)
	if n.guard != nil && !n.guard.AllowControlSend() {
		return
	}
	n.obs.sends.Inc()
	// Unicasts are repair and transfer traffic (retransmissions, state,
	// served baselines) — never held; see Broadcast.
	n.flushUrgent = true
	dst := int(to)
	c := n.coUni[dst]
	if c == nil {
		c = new(wire.Coalescer)
		c.SetGroup(n.cfg.Group)
		n.coUni[dst] = c
	}
	if c.Count() == 0 {
		n.coDests = append(n.coDests, dst)
	}
	if !c.TryAppend(m) {
		if d := c.Datagram(); d != nil {
			n.tr.Unicast(dst, d) //nolint:errcheck // omission failures are in-model
		}
		c.Reset()
		c.TryAppend(m)
	}
}

// flushBroadcast sends the pending broadcast datagram, encoded once and
// fanned out by the transport with no per-peer copies.
func (n *Node) flushBroadcast() {
	if d := n.coBcast.Datagram(); d != nil {
		// Omission failures are in-model; count them for /metrics when
		// the transport does not track its own.
		if err := n.tr.Broadcast(d); err != nil && n.trSendErrs == nil {
			n.sendErrs.Add(1)
		}
	}
	n.coBcast.Reset()
}

// flushSends ships every datagram coalesced since the last flush: one
// broadcast, then one datagram per unicast destination — through a
// single SendBatch syscall when the transport can batch and more than
// one destination is pending.
func (n *Node) flushSends() {
	n.flushUrgent = false
	n.flushBroadcast()
	if len(n.coDests) == 0 {
		return
	}
	if n.batch != nil && len(n.coDests) > 1 {
		msgs := n.batchBuf[:0]
		for _, dst := range n.coDests {
			c := n.coUni[dst]
			if d := c.Datagram(); d != nil {
				msgs = append(msgs, BatchMessage{To: dst, Data: d})
			}
		}
		if len(msgs) > 0 {
			if err := n.batch.SendBatch(msgs); err != nil && n.trSendErrs == nil {
				n.sendErrs.Add(uint64(len(msgs)))
			}
		}
		// The coalescers' buffers were only borrowed by SendBatch;
		// reset them after the call returns.
		for _, dst := range n.coDests {
			n.coUni[dst].Reset()
		}
		n.batchBuf = msgs[:0]
		n.coDests = n.coDests[:0]
		return
	}
	for _, dst := range n.coDests {
		c := n.coUni[dst]
		if d := c.Datagram(); d != nil {
			if err := n.tr.Unicast(dst, d); err != nil && n.trSendErrs == nil {
				n.sendErrs.Add(1)
			}
		}
		c.Reset()
	}
	n.coDests = n.coDests[:0]
}

// armFlushTimer schedules the slot-edge flush backstop (event-loop
// context, SlotBatch mode): if no timer-path event flushes first, the
// pending frames ship when the current wheel slot ends. One armed
// timer at a time; a timer-path flush before the edge leaves it to
// fire as a harmless empty flush.
func (n *Node) armFlushTimer() {
	if n.flushArmed {
		return
	}
	n.flushArmed = true
	now := model.Time(time.Now().UnixMicro())
	edge := n.params.SlotStart(now).Add(n.params.SlotLen())
	delay := time.Duration(edge-now) * time.Microsecond
	if delay < 0 {
		delay = 0
	}
	due := time.Now().Add(delay)
	n.mu.Lock()
	if !n.stopped {
		n.flushTimer = time.AfterFunc(delay, func() { n.postFlush(due) })
	}
	n.mu.Unlock()
}

// postFlush posts the slot-edge flush event. Like postTimer it must not
// be lost to a full queue — stranded frames would sit until the next
// reactive event — so it retries on a short backoff, keeping the
// original deadline.
func (n *Node) postFlush(due time.Time) {
	if n.post(engine.Event{Type: engine.EvCommand, Cmd: n.onFlushTimer, Due: due}) {
		return
	}
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if !stopped {
		time.AfterFunc(time.Millisecond, func() { n.postFlush(due) })
	}
}

// onFlushTimer runs in the event loop. The flush itself happens in
// handle(): the event carries Due, so it takes the timer path.
func (n *Node) onFlushTimer() {
	n.flushArmed = false
	n.obs.slotbatchFlushes.Inc()
}

func (e *nodeEnv) SetTimer(id member.TimerID, at model.Time) {
	n := (*Node)(e)
	delay := time.Duration(at-e.Now()) * time.Microsecond
	if delay < 0 {
		delay = 0
	}
	due := time.Now().Add(delay)
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.timers[id]; ok {
		old.Stop()
	}
	if n.stopped {
		return
	}
	n.timers[id] = time.AfterFunc(delay, func() {
		n.postTimer(id, due)
	})
}

// postTimer posts a timer firing, stamped with its armed deadline for
// lateness accounting. Unlike messages, a timer must not be lost to a
// full queue: the slot schedule re-arms only from its own handler, so a
// dropped TimerSlot would silence the node permanently. Retry on a
// short backoff until the queue drains or the node stops; the original
// deadline is kept, so the guard sees the true lateness.
func (n *Node) postTimer(id member.TimerID, due time.Time) {
	if n.post(engine.Event{Type: engine.TypeOfTimer(id), Timer: id, Due: due}) {
		return
	}
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if !stopped {
		time.AfterFunc(time.Millisecond, func() { n.postTimer(id, due) })
	}
}

func (e *nodeEnv) CancelTimer(id member.TimerID) {
	n := (*Node)(e)
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
}

// --- Transport constructors ---------------------------------------------------

// HubConfig shapes the in-memory hub's fault model (at parity with the
// simulator's: delay, loss, duplication, corruption, reordering).
type HubConfig struct {
	MinDelay, MaxDelay time.Duration
	DropProb           float64
	DupProb            float64
	CorruptProb        float64
	ReorderProb        float64
	Seed               int64
}

// MemoryHub connects in-process nodes (tests, demos, examples).
type MemoryHub struct{ hub *transport.Hub }

// NewMemoryHub creates an in-process datagram switchboard.
func NewMemoryHub(cfg HubConfig) *MemoryHub {
	return &MemoryHub{hub: transport.NewHub(transport.HubOptions{
		MinDelay:    cfg.MinDelay,
		MaxDelay:    cfg.MaxDelay,
		DropProb:    cfg.DropProb,
		DupProb:     cfg.DupProb,
		CorruptProb: cfg.CorruptProb,
		ReorderProb: cfg.ReorderProb,
		Seed:        cfg.Seed,
	})}
}

// Transport returns the hub port for node id.
func (h *MemoryHub) Transport(id int) Transport {
	return memAdapter{h.hub.Attach(model.ProcessID(id))}
}

// Close shuts the hub down.
func (h *MemoryHub) Close() { h.hub.Close() }

type memAdapter struct{ t *transport.MemTransport }

func (a memAdapter) Broadcast(data []byte) error { return a.t.Broadcast(data) }
func (a memAdapter) Unicast(to int, data []byte) error {
	return a.t.Unicast(model.ProcessID(to), data)
}
func (a memAdapter) SetReceiver(r func([]byte)) { a.t.SetReceiver(r) }
func (a memAdapter) Close() error               { return a.t.Close() }

// NewUDPTransport binds a UDP socket for node id; addrs maps every node
// ID to "host:port".
func NewUDPTransport(id int, addrs map[int]string) (Transport, error) {
	m := make(map[model.ProcessID]string, len(addrs))
	for k, v := range addrs {
		m[model.ProcessID(k)] = v
	}
	u, err := transport.NewUDP(model.ProcessID(id), m)
	if err != nil {
		return nil, err
	}
	return &udpAdapter{u: u}, nil
}

type udpAdapter struct {
	u     *transport.UDP
	batch []transport.BatchMsg // reused across SendBatch calls
}

func (a *udpAdapter) Broadcast(data []byte) error { return a.u.Broadcast(data) }
func (a *udpAdapter) Unicast(to int, data []byte) error {
	return a.u.Unicast(model.ProcessID(to), data)
}
func (a *udpAdapter) SetReceiver(r func([]byte)) { a.u.SetReceiver(r) }
func (a *udpAdapter) Close() error               { return a.u.Close() }

// SendBatch implements BatchSender over the UDP transport's
// sendmmsg-batched path. Safe for the single event-loop caller the
// node contract gives it (the scratch slice is per-adapter).
func (a *udpAdapter) SendBatch(msgs []BatchMessage) error {
	b := a.batch[:0]
	for i := range msgs {
		b = append(b, transport.BatchMsg{To: model.ProcessID(msgs[i].To), Data: msgs[i].Data})
	}
	a.batch = b
	return a.u.SendBatch(b)
}

// SendErrors exposes the transport's failed-send count for the
// timewheel_transport_send_errors_total metric.
func (a *udpAdapter) SendErrors() uint64 { return a.u.SendErrors() }

// --- Chaos middleware ----------------------------------------------------------

// ChaosConfig shapes the seed-driven chaos middleware's random per-link
// fault mix. Partitions, link flapping and nemesis schedules are
// available on the internal API (internal/transport); this public
// surface covers demos and soak runs over any Transport — memory hub
// and UDP alike.
type ChaosConfig struct {
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// DropProb, DupProb, CorruptProb, ReorderProb are independent
	// per-frame probabilities applied on the receiving side of each
	// wrapped transport.
	DropProb    float64
	DupProb     float64
	CorruptProb float64
	ReorderProb float64
}

// ChaosNet is a chaos controller shared by the wrapped transports of
// one cluster: one seed, one fault mix, one stats block.
type ChaosNet struct{ net *transport.ChaosNet }

// NewChaosNet creates a chaos controller.
func NewChaosNet(cfg ChaosConfig) *ChaosNet {
	return &ChaosNet{net: transport.NewChaosNet(cfg.Seed, transport.Faults{
		MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
		Drop: cfg.DropProb, Duplicate: cfg.DupProb,
		Corrupt: cfg.CorruptProb, Reorder: cfg.ReorderProb,
	})}
}

// Wrap interposes the chaos middleware on node id's transport; hand the
// returned Transport to NewNode in place of t.
func (c *ChaosNet) Wrap(id int, t Transport) Transport {
	return chaosOuter{c.net.Wrap(chaosInner{t: t, id: model.ProcessID(id)})}
}

// ChaosStats counts the faults the middleware has injected so far.
type ChaosStats struct {
	Delivered  uint64 // frames passed through (possibly delayed)
	Dropped    uint64 // frames discarded by the drop probability
	Blocked    uint64 // frames discarded by an active partition
	Duplicated uint64 // extra copies injected
	Corrupted  uint64 // frames with flipped bits
	Reordered  uint64 // frames held back past their successors

	// Sender-side stage (SetSendFaults): whole datagrams affected
	// before a broadcast fans out.
	SendDropped   uint64
	SendDelivered uint64

	// Bandwidth-shaping stage (SetRate).
	Shaped     uint64        // datagrams held back by an empty token bucket
	ShapeDelay time.Duration // cumulative queueing delay the shaper added
}

// Stats snapshots the cluster-wide fault counters.
func (c *ChaosNet) Stats() ChaosStats {
	s := c.net.Stats()
	return ChaosStats{
		Delivered: s.Delivered, Dropped: s.Dropped, Blocked: s.Blocked,
		Duplicated: s.Duplicated, Corrupted: s.Corrupted, Reordered: s.Reordered,
		SendDropped: s.SendDropped, SendDelivered: s.SendDelivered,
		Shaped: s.Shaped, ShapeDelay: s.ShapeDelay,
	}
}

// SetRate caps node id's sustained outbound throughput at bytesPerSec
// with up to burst bytes of slack (burst <= 0 defaults to one second's
// worth); bytesPerSec <= 0 removes the limit. The token bucket's
// queueing delay composes with the sender-side fault mix and the
// receive-side faults, so a rate-limited jittery link — slow but
// healthy — is expressible for the adaptive-timeout soaks.
func (c *ChaosNet) SetRate(id int, bytesPerSec, burst int64) {
	c.net.SetRate(model.ProcessID(id), bytesPerSec, burst)
}

// SetSendFaults installs a sender-side fault mix for node id's outgoing
// datagrams, applied once per send before a broadcast fans out —
// congestion at the sender's NIC, the asymmetric half of a one-way
// degraded link (the receive-side mix is the other half).
func (c *ChaosNet) SetSendFaults(id int, cfg ChaosConfig) {
	c.net.SetSendFaults(model.ProcessID(id), transport.Faults{
		MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
		Drop: cfg.DropProb, Duplicate: cfg.DupProb,
		Corrupt: cfg.CorruptProb, Reorder: cfg.ReorderProb,
	})
}

// ClearSendFaults removes node id's sender-side fault mix.
func (c *ChaosNet) ClearSendFaults(id int) {
	c.net.ClearSendFaults(model.ProcessID(id))
}

// Heal removes any active link blocks (the per-frame fault mix keeps
// running).
func (c *ChaosNet) Heal() { c.net.Heal() }

// chaosInner lifts a public Transport to the internal interface (which
// additionally knows its own process ID).
type chaosInner struct {
	t  Transport
	id model.ProcessID
}

func (a chaosInner) Self() model.ProcessID            { return a.id }
func (a chaosInner) Broadcast(data []byte) error      { return a.t.Broadcast(data) }
func (a chaosInner) SetReceiver(r transport.Receiver) { a.t.SetReceiver(r) }
func (a chaosInner) Close() error                     { return a.t.Close() }
func (a chaosInner) Unicast(to model.ProcessID, data []byte) error {
	return a.t.Unicast(int(to), data)
}

// chaosOuter adapts the wrapped transport back to the public interface.
type chaosOuter struct{ c *transport.Chaos }

func (a chaosOuter) Broadcast(data []byte) error { return a.c.Broadcast(data) }
func (a chaosOuter) Unicast(to int, data []byte) error {
	return a.c.Unicast(model.ProcessID(to), data)
}
func (a chaosOuter) SetReceiver(r func([]byte)) { a.c.SetReceiver(r) }
func (a chaosOuter) Close() error               { return a.c.Close() }
