// Package node is the simulator adapter over the process core
// (internal/core): it runs each core on the deterministic simulation
// kernel with a drifting, synchronized clock, sim.Sim timers and the
// simulated datagram network, adds crash and recovery, records every
// node's deliveries, views, state changes and decider tenures, and
// groups N nodes into a Cluster.
//
// This is the execution substrate for the integration tests, the
// scenario library and the examples. The same core runs in real time
// over UDP or the memory hub behind package timewheel at the module
// root.
package node

import (
	"fmt"
	"path/filepath"

	"timewheel/internal/adapt"
	"timewheel/internal/broadcast"
	"timewheel/internal/clock"
	"timewheel/internal/core"
	"timewheel/internal/csync"
	"timewheel/internal/durable"
	"timewheel/internal/fdetect"
	"timewheel/internal/member"
	"timewheel/internal/model"
	"timewheel/internal/netsim"
	"timewheel/internal/oal"
	"timewheel/internal/sim"
	"timewheel/internal/surveil"
	"timewheel/internal/wire"
)

// Options configures a simulated cluster.
type Options struct {
	Seed   int64
	Params model.Params
	// Delay is the network delay model; nil uses netsim's default
	// (uniform in [delta/10, delta/2]).
	Delay netsim.DelayFn
	// Drop is the background omission probability per delivery.
	Drop float64
	// PerfectClocks disables clock drift and the synchronization
	// service: every node reads the simulation clock directly. Protocol
	// experiments default to this; clock-stack experiments turn it off.
	PerfectClocks bool
	// MaxClockOffset bounds the initial hardware clock offsets when
	// PerfectClocks is false.
	MaxClockOffset model.Duration
	// DeciderHold overrides the decider batching window (default D/2).
	DeciderHold model.Duration
	// DisableFastPath forces every failure through the reconfiguration
	// election (ablation).
	DisableFastPath bool
	// RoundTripSync switches the clock synchronization service to
	// probe/echo round trips with measured error bounds (the fail-aware
	// mechanism proper) instead of one-way beacon adoption. Only
	// meaningful with PerfectClocks disabled.
	RoundTripSync bool
	// DataDir, when set, gives every node a durable store (write-ahead
	// log + snapshots) in DataDir/node-<id>: Crash abandons the store as
	// kill -9 would, and Recover reopens it and rejoins warm from the
	// recovered state instead of starting empty.
	DataDir string
	// Fsync is the durable store's fsync policy (default batched).
	Fsync durable.FsyncPolicy
	// SnapshotEvery writes an application snapshot after that many
	// logged deliveries (default 64; only meaningful with DataDir).
	SnapshotEvery int
	// FullOALEvery forwards to broadcast.Config.FullOALEvery, which
	// counts only by its sign: negative disables delta encoding entirely
	// (every decision full); zero or positive leaves it on.
	FullOALEvery int
	// RecordWire appends every control send/receive (with its causal
	// context) to Node.WireLog — the input of the cross-node timeline
	// merge (internal/trace.MergeSim). Off by default: wire events are
	// the protocol's highest-volume stream and long soak runs would
	// accumulate them without bound.
	RecordWire bool
	// Adaptive enables per-peer adaptive timeliness estimation on every
	// node's failure detector (the same estimator the live node wires
	// with Config.Adaptive) — chaos scenarios with degraded links need
	// it so slow-but-healthy peers widen their deadlines instead of
	// being ejected.
	Adaptive bool
	// SurveillanceK, when positive, enables k-successor surveillance
	// with gossiped suspicions (member.Config.Surveillance) on every
	// node. Zero keeps the all-to-all scheme.
	SurveillanceK int
	// SlotBatch enables sender-side slot-boundary micro-batching on the
	// simulated network (netsim.EnableSlotBatch) — the sim twin of the
	// live node's Config.SlotBatch coalescer. Frames buffer per
	// destination and go out as one datagram at the sender's slot edge
	// or its own timer tick, whichever is first.
	SlotBatch bool
}

// ViewRecord is one installed membership view.
type ViewRecord struct {
	Group model.Group
	At    model.Time // real (simulation) time
}

// StateRecord is one FSM transition.
type StateRecord struct {
	From, To member.State
	At       model.Time
}

// DeciderRecord is one interval during which the node held the decider
// role. End is zero while the interval is still open. Sent records
// whether the tenure produced a decision: a decider-elect that learns of
// a fresher decision relinquishes without sending, which is a benign,
// unavoidable transient while messages are in flight.
type DeciderRecord struct {
	Start, End model.Time
	Sent       bool
}

// DeliveryRecord is one update delivery, tagged with the node's
// incarnation (crash/recovery bumps it).
type DeliveryRecord struct {
	broadcast.Delivery
	At          model.Time
	Incarnation int
}

// WireRecord is one control-message send or receive with the causal
// context the frame carries (recorded only with Options.RecordWire).
// At is the node's synchronized clock reading, so cross-node edges in
// the merged timeline are subject to the ε clock bound, exactly as on
// real hosts.
type WireRecord struct {
	Dir  member.WireDir
	Kind wire.Kind
	Peer model.ProcessID // send: unicast destination (NoProcess = broadcast); recv: sender
	Ctx  wire.Causal
	At   model.Time
}

// Node is one simulated timewheel process.
type Node struct {
	ID      model.ProcessID
	cluster *Cluster

	hw   *clock.Hardware
	adj  *clock.Adjusted
	sync *csync.Service

	// Core is the process itself: broadcast, membership and the durable
	// binding, rebuilt on every recovery.
	*core.Core

	timers  map[member.TimerID]*sim.Timer
	crashed bool

	// deciderSent snapshots the decision counter at role start, to mark
	// DeciderRecord.Sent at role end.
	deciderSent uint64

	// Incarnation counts crash/recovery cycles.
	Incarnation int

	// store is the node's durable store (nil without Options.DataDir).
	store *durable.Store

	// Installs counts full state-transfer installs — a warm (delta)
	// rejoin must not bump it.
	Installs int

	// Observability.
	Deliveries []DeliveryRecord
	Views      []ViewRecord
	StateLog   []StateRecord
	DeciderLog []DeciderRecord
	WireLog    []WireRecord // only with Options.RecordWire

	// appState is the toy replicated state used when the application
	// does not install its own snapshot hooks.
	appState []byte
}

// Cluster is a set of simulated nodes on one network.
type Cluster struct {
	Sim    *sim.Sim
	Net    *netsim.Network
	Params model.Params
	Opts   Options
	Nodes  []*Node
}

// NewCluster builds (but does not start) a cluster of opts.Params.N
// nodes.
func NewCluster(opts Options) *Cluster {
	if opts.Params.N == 0 {
		panic("node: Options.Params must be set")
	}
	if err := opts.Params.Validate(); err != nil {
		panic(fmt.Sprintf("node: invalid params: %v", err))
	}
	s := sim.New(opts.Seed)
	c := &Cluster{
		Sim:    s,
		Net:    netsim.New(s, opts.Params, opts.Delay, opts.Drop),
		Params: opts.Params,
		Opts:   opts,
	}
	if opts.SlotBatch {
		c.Net.EnableSlotBatch(0)
	}
	for i := 0; i < opts.Params.N; i++ {
		c.Nodes = append(c.Nodes, c.newNode(model.ProcessID(i)))
	}
	if !opts.PerfectClocks {
		c.startClockSync()
	}
	return c
}

func (c *Cluster) newNode(id model.ProcessID) *Node {
	n := &Node{
		ID:      id,
		cluster: c,
		timers:  make(map[member.TimerID]*sim.Timer),
	}
	if c.Opts.PerfectClocks {
		n.hw = &clock.Hardware{}
		n.adj = clock.NewAdjusted(n.hw)
		n.adj.Apply(0)
	} else {
		maxOff := c.Opts.MaxClockOffset
		if maxOff == 0 {
			maxOff = c.Params.Epsilon
		}
		n.hw = clock.NewRandomHardware(c.Sim.Rand(), maxOff, c.Params.RhoPPM)
		n.adj = clock.NewAdjusted(n.hw)
		n.sync = csync.New(id, c.Params, csync.DefaultConfig(c.Params), n.adj)
	}
	n.boot()
	c.Net.Register(id, func(m wire.Message) {
		if !n.crashed {
			n.Machine().OnMessage(m)
		}
	})
	return n
}

// openStore opens (or reopens, on recovery) the node's durable store
// and returns what it recovered from disk; nil without a data
// directory.
func (n *Node) openStore() *durable.Recovery {
	if n.cluster.Opts.DataDir == "" {
		return nil
	}
	st, rec, err := durable.Open(durable.Options{
		Dir:    filepath.Join(n.cluster.Opts.DataDir, fmt.Sprintf("node-%d", n.ID)),
		Policy: n.cluster.Opts.Fsync,
	})
	if err != nil {
		panic(fmt.Sprintf("node %d: durable store: %v", n.ID, err))
	}
	n.store = st
	return rec
}

// boot assembles a fresh process over the simulated environment
// (initial boot and crash recovery) and rebuilds its state from what
// the durable store recovered. Recovered updates rebuild the
// application state only: they are not deliveries of this incarnation,
// so Deliveries does not list them.
func (n *Node) boot() {
	rec := n.openStore()
	snapEvery := n.cluster.Opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 64
	}
	n.Core = core.New(core.Config{
		ID:     n.ID,
		Params: n.cluster.Params,
		Env:    (*nodeEnv)(n),
		Broadcast: broadcast.Config{
			FullOALEvery: n.cluster.Opts.FullOALEvery,
			OnDeliver: func(d broadcast.Delivery) {
				n.Deliveries = append(n.Deliveries, DeliveryRecord{
					Delivery: d, At: n.cluster.Sim.Now(), Incarnation: n.Incarnation,
				})
				n.applyUpdate(d)
			},
			Snapshot: n.AppState,
			Install: func(b []byte) {
				n.appState = append([]byte(nil), b...)
				n.Installs++
			},
		},
		Member: member.Config{
			DeciderHold:     n.cluster.Opts.DeciderHold,
			DisableFastPath: n.cluster.Opts.DisableFastPath,
			Surveillance:    surveil.Config{K: n.cluster.Opts.SurveillanceK},
			Hooks:           n.hooks(),
		},
		Store:         n.store,
		SnapshotEvery: snapEvery,
	})
	if n.cluster.Opts.Adaptive {
		n.EnableAdaptive(adapt.NewDelayEstimator(adapt.Config{}), fdetect.AdaptiveConfig{})
	}
	n.Restore(rec, func(b []byte) { n.appState = append([]byte(nil), b...) }, n.applyUpdate)
}

// applyUpdate appends one delivered update to the toy application
// state.
func (n *Node) applyUpdate(d broadcast.Delivery) {
	n.appState = append(n.appState, d.Payload...)
	n.appState = append(n.appState, ';')
}

// hooks records the node's state changes, views, decider tenures and
// (with Options.RecordWire) wire events.
func (n *Node) hooks() member.Hooks {
	return member.Hooks{
		StateChange: func(from, to member.State, _ model.Time) {
			n.StateLog = append(n.StateLog, StateRecord{From: from, To: to, At: n.cluster.Sim.Now()})
			if to == member.StateJoin && from != member.StateJoin {
				// Exclusion wiped the protocol state (resetForJoin):
				// deliveries after the rejoin are a new epoch, rebased
				// by the join-time state transfer.
				n.Incarnation++
			}
		},
		ViewChange: func(g model.Group, _ model.Time) {
			n.Views = append(n.Views, ViewRecord{Group: g, At: n.cluster.Sim.Now()})
		},
		Decider: func(isDecider bool, _ model.Time) {
			at := n.cluster.Sim.Now()
			if isDecider {
				n.DeciderLog = append(n.DeciderLog, DeciderRecord{Start: at})
				n.deciderSent = n.Machine().Stats().DecisionsSent
			} else if k := len(n.DeciderLog) - 1; k >= 0 && n.DeciderLog[k].End == 0 {
				n.DeciderLog[k].End = at
				n.DeciderLog[k].Sent = n.Machine().Stats().DecisionsSent > n.deciderSent
			}
		},
		WireEvent: func(dir member.WireDir, kind wire.Kind, peer model.ProcessID, ctx wire.Causal, at model.Time) {
			if n.cluster.Opts.RecordWire {
				n.WireLog = append(n.WireLog, WireRecord{Dir: dir, Kind: kind, Peer: peer, Ctx: ctx, At: at})
			}
		},
	}
}

// Start boots every node.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Machine().Start()
	}
}

// Run advances the simulation by d.
func (c *Cluster) Run(d model.Duration) { c.Sim.RunFor(d) }

// Node returns the node with the given ID.
func (c *Cluster) Node(id model.ProcessID) *Node { return c.Nodes[int(id)] }

// Crash fails node id: it stops sending, receiving and reacting.
func (c *Cluster) Crash(id model.ProcessID) {
	n := c.Nodes[int(id)]
	n.crashed = true
	if k := len(n.DeciderLog) - 1; k >= 0 && n.DeciderLog[k].End == 0 {
		n.DeciderLog[k].End = c.Sim.Now()
	}
	c.Net.Crash(id)
	for _, t := range n.timers {
		t.Stop()
	}
	n.timers = make(map[member.TimerID]*sim.Timer)
	if n.store != nil {
		// kill -9: no final sync, no snapshot — recovery must cope with
		// whatever the log holds.
		n.store.Abandon()
		n.store = nil
	}
}

// Recover restarts node id with a fresh protocol stack (a recovered
// process rejoins through the join protocol; its pre-crash volatile
// state is gone). With a data directory the restart recovers the
// durable state first — the application state is rebuilt from the
// snapshot plus the log, and the rejoin fetches only the delta.
func (c *Cluster) Recover(id model.ProcessID) {
	n := c.Nodes[int(id)]
	if !n.crashed {
		return
	}
	n.crashed = false
	n.Incarnation++
	n.appState = nil
	c.Net.Recover(id)
	if n.sync != nil {
		n.sync.Forget()
	}
	n.boot()
	n.Machine().Start()
}

// Crashed reports whether node id is down.
func (c *Cluster) Crashed(id model.ProcessID) bool { return c.Nodes[int(id)].crashed }

// Store exposes a node's durable store; nil without Options.DataDir
// (and while crashed).
func (n *Node) Store() *durable.Store { return n.store }

// SyncedNow returns the node's synchronized-clock reading.
func (n *Node) SyncedNow() model.Time { return n.adj.Read(n.cluster.Sim.Now()) }

// Propose broadcasts an update from this node; returns false if the node
// is crashed or not currently a group member.
func (n *Node) Propose(payload []byte, sem oal.Semantics) bool {
	if n.crashed {
		return false
	}
	return n.Machine().Propose(payload, sem) != nil
}

// CurrentGroup returns the node's current group and whether it has one.
func (n *Node) CurrentGroup() (model.Group, bool) { return n.View() }

// State returns the node's FSM state.
func (n *Node) State() member.State { return n.Machine().State() }

// AppState returns a copy of the node's application state: the
// ';'-joined payloads of every ordered delivery, rebased by join-time
// state transfers. Two nodes whose total/strong deliveries agree have
// byte-identical app states.
func (n *Node) AppState() []byte { return append([]byte(nil), n.appState...) }

// nodeEnv adapts Node to member.Env. Synchronized-clock deadlines are
// converted to simulation time through the node's adjusted clock; the
// residual drift error (<= rho * horizon) is absorbed by the slot pad.
type nodeEnv Node

func (e *nodeEnv) Now() model.Time { return (*Node)(e).SyncedNow() }

func (e *nodeEnv) Broadcast(m wire.Message) {
	if !e.crashed {
		e.cluster.Net.Broadcast(m)
	}
}

func (e *nodeEnv) Unicast(to model.ProcessID, m wire.Message) {
	if !e.crashed {
		e.cluster.Net.Unicast(to, m)
	}
}

func (e *nodeEnv) SetTimer(id member.TimerID, at model.Time) {
	n := (*Node)(e)
	if t, ok := n.timers[id]; ok {
		t.Stop()
	}
	// Convert the synchronized-clock deadline to simulation time.
	delay := model.Duration(at - n.SyncedNow())
	if delay < 0 {
		delay = 0
	}
	n.timers[id] = n.cluster.Sim.After(delay, func() {
		if !n.crashed {
			n.Machine().OnTimer(id)
			// Timer-path flush hook (the live coalescer's contract):
			// whatever the tick produced — no-decision votes, decisions,
			// fdetect probes — leaves before the handler returns, so
			// deadline-bearing traffic is never held to the slot edge.
			n.cluster.Net.FlushSender(n.ID)
		}
	})
}

func (e *nodeEnv) CancelTimer(id member.TimerID) {
	n := (*Node)(e)
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
}

// syncDelay draws a one-way delay for clock-sync traffic from the same
// model as the protocol network.
func (c *Cluster) syncDelay(from, to model.ProcessID) model.Duration {
	if c.Opts.Delay != nil {
		return c.Opts.Delay(c.Sim.Rand(), from, to)
	}
	return c.Params.Delta/10 + model.Duration(c.Sim.Rand().Int63n(int64(c.Params.Delta/3)))
}

// startClockSync runs the clock synchronization service over the same
// delay model as the protocol network: beacons always (master election,
// freshness, and — in beacon mode — correction), plus probe/echo round
// trips when Options.RoundTripSync is set.
func (c *Cluster) startClockSync() {
	interval := csync.DefaultConfig(c.Params).Interval
	for _, n := range c.Nodes {
		n := n
		if c.Opts.RoundTripSync {
			n.sync.SetRoundTripOnly(true)
		}
		var tick func()
		tick = func() {
			if !n.crashed {
				b := n.sync.Tick(c.Sim.Now())
				for _, peer := range c.Nodes {
					if peer == n {
						continue
					}
					peer := peer
					d := c.syncDelay(n.ID, peer.ID)
					c.Sim.After(d, func() {
						if !peer.crashed && !n.crashed && c.Net.Connected(n.ID, peer.ID) {
							peer.sync.OnBeacon(c.Sim.Now(), b)
						}
					})
				}
				if c.Opts.RoundTripSync {
					c.probeMaster(n)
				}
			}
			c.Sim.After(interval, tick)
		}
		c.Sim.Schedule(model.Time(int64(n.ID)*997), tick)
	}
}

// probeMaster runs one probe/echo round trip from n to its current
// master.
func (c *Cluster) probeMaster(n *Node) {
	p, master, ok := n.sync.MakeProbe(c.Sim.Now())
	if !ok {
		return
	}
	m := c.Nodes[int(master)]
	c.Sim.After(c.syncDelay(n.ID, m.ID), func() {
		if m.crashed || !c.Net.Connected(n.ID, m.ID) {
			return
		}
		echo := m.sync.OnProbe(c.Sim.Now(), p)
		c.Sim.After(c.syncDelay(m.ID, n.ID), func() {
			if !n.crashed && c.Net.Connected(n.ID, m.ID) {
				n.sync.OnEcho(c.Sim.Now(), echo)
			}
		})
	})
}
