package timewheel

// Live observability for real nodes: every Node owns an obs.Registry
// holding its protocol metrics, and all nodes in the process share one
// trace ring (package-level, so timewheel.Observe and /debug/events see
// the whole in-process cluster; Event.Node tells emitters apart).
//
// Two consistency domains coexist here, deliberately:
//
//   - hot-path instruments (histograms, FSM transition counters, peer
//     delay, guard trips, queue depth) are pure atomics written by the
//     emitting goroutine — always readable, even while the event loop
//     is stalled, which is when they matter most;
//   - the member/broadcast Stats blocks are event-loop confined, so
//     /metrics mirrors them by posting a copy command with a short
//     timeout; a stalled loop leaves the mirror stale (flagged by
//     timewheel_mirror_stale) without stalling the scrape.

import (
	"expvar"
	"io"
	"sync"
	"time"

	"timewheel/internal/check"
	"timewheel/internal/engine"
	"timewheel/internal/member"
	"timewheel/internal/model"
	"timewheel/internal/obs"
	"timewheel/internal/wire"
)

// tracer is the process-wide protocol event ring shared by all Nodes.
var tracer = obs.NewTracer(8192)

// TraceEvent is one protocol event delivered to Observe sinks: a state
// transition, view install, decider handoff, election, suspicion, guard
// trip, WAL sync or snapshot.
type TraceEvent struct {
	// Seq is a process-wide dense sequence number.
	Seq uint64
	// At is the emit time.
	At time.Time
	// Node is the emitting node's ID.
	Node int
	// Type names the event (e.g. "state-change", "view-install",
	// "election-end", "guard-trip").
	Type string
	// A and B are the type-specific arguments; see docs/OBSERVABILITY.md
	// for the per-type meaning.
	A, B int64
}

// Observe attaches a sink to the process-wide protocol event stream of
// every Node in this process. The sink runs synchronously on the
// emitting goroutine — protocol hot paths — so it must be fast and
// non-blocking (enqueue and return). The returned cancel detaches it.
// With no sink attached (and no /debug/events consumer) emitting is a
// single atomic check, so idle instrumentation is effectively free.
func Observe(sink func(TraceEvent)) (cancel func()) {
	return tracer.Attach(func(ev obs.Event) {
		sink(TraceEvent{
			Seq:  ev.Seq,
			At:   ev.Time(),
			Node: int(ev.Node),
			Type: ev.Type.String(),
			A:    ev.A,
			B:    ev.B,
		})
	})
}

// healthy membership states: everything except join (not/no longer a
// member) and n-failure (the view is in doubt; a reconfiguration
// election is running).
func healthyState(s member.State) bool {
	switch s {
	case member.StateFailureFree, member.StateWrongSuspicion,
		member.State1FailureReceive, member.State1FailureSend:
		return true
	}
	return false
}

// nodeObs is one node's instrument set. Hot-path fields are written
// from the event goroutine (hooks) or transport goroutines and read
// from scrapers; episode fields are event-loop confined.
type nodeObs struct {
	id  int32
	reg *obs.Registry

	// Engine / dispatch (atomics, live).
	handlerLatency *obs.Histogram
	timerLateness  *obs.Histogram

	// Membership (hook-driven, live).
	viewInstall   *obs.Histogram
	electionSing  *obs.Histogram
	electionReco  *obs.Histogram
	decisionLat   *obs.Histogram
	suspicionLag  *obs.Histogram
	fsmMu         sync.Mutex
	fsmTransition [6][6]*obs.Counter

	// Broadcast (live).
	deliveryLag *obs.Histogram

	// Transport (live).
	sends     *obs.Counter
	recvs     *obs.Counter
	recvDrops *obs.Counter
	peerDelay []*obs.Histogram // indexed by peer ID

	// Slot-boundary micro-batching (Config.SlotBatch; zero otherwise).
	slotbatchHeld    *obs.Counter
	slotbatchFlushes *obs.Counter

	// Durable (live).
	fsyncLat   *obs.Histogram
	snapBytes  *obs.Histogram
	replaySize *obs.Histogram

	// Mirror of event-loop-confined Stats blocks (Store'd on scrape).
	mirrorStale  *obs.Gauge
	mirror       map[string]*obs.Counter
	mirrorMu     sync.Mutex
	lastMirrorAt time.Time

	// Health state, readable while the loop is stalled.
	state  obs.Gauge // member.State as int64
	inView obs.Gauge // 1 after a view install, 0 after dropping to join

	// Election episode tracking: event-loop confined (StateChange and
	// ViewChange hooks both run on the event goroutine). episodeStart
	// anchors election duration (cleared on return to failure-free);
	// installAnchor anchors view-install latency (cleared on the next
	// installed view).
	episodeStart  time.Time
	installAnchor time.Time
	sawNFailure   bool
	// Decider tenure tracking for decision latency (event-loop confined).
	tenureStart time.Time
}

// mirrorNames lists the event-loop-confined counters /metrics mirrors,
// in the order of Metrics' fields.
var mirrorNames = []string{
	"timewheel_member_view_changes_total",
	"timewheel_member_single_elections_total",
	"timewheel_member_reconfig_elections_total",
	"timewheel_member_wrong_suspicions_total",
	"timewheel_member_nodecisions_sent_total",
	"timewheel_member_reconfigs_sent_total",
	"timewheel_member_joins_sent_total",
	"timewheel_member_decisions_sent_total",
	"timewheel_decisions_early_total",
	"timewheel_member_admissions_total",
	"timewheel_member_self_exclusions_total",
	"timewheel_surveil_suspicions_total",
	"timewheel_surveil_refutes_total",
	"timewheel_surveil_relays_total",
	"timewheel_surveil_duplicates_total",
	"timewheel_surveil_stale_total",
	"timewheel_broadcast_proposed_total",
	"timewheel_broadcast_delivered_total",
	"timewheel_broadcast_delivered_fast_total",
	"timewheel_broadcast_purged_total",
	"timewheel_broadcast_retransmits_total",
	"timewheel_broadcast_state_fulls_total",
	"timewheel_broadcast_state_deltas_total",
	"timewheel_broadcast_replay_applied_total",
}

func newNodeObs(n *Node) *nodeObs {
	o := &nodeObs{id: int32(n.cfg.ID), reg: obs.NewRegistry()}
	r := o.reg
	if n.cfg.Group != 0 {
		// Fabric nodes host many groups, each with its own registry;
		// the group label keeps their series apart when scraped merged.
		r.SetBaseLabels(obs.L("group", "g"+itoa(int(n.cfg.Group))))
	}

	// Engine.
	r.GaugeFunc("timewheel_engine_queue_depth", "events queued and not yet dispatched", nil,
		func() int64 {
			if n.loop == nil {
				return 0
			}
			return int64(n.loop.QueueLen())
		})
	r.CounterFunc("timewheel_engine_handled_total", "events dispatched", nil,
		func() uint64 {
			if n.loop == nil {
				return 0
			}
			return n.loop.Handled()
		})
	r.CounterFunc("timewheel_engine_queue_drops_total", "events rejected by the full bounded queue", nil,
		func() uint64 {
			if n.loop == nil {
				return 0
			}
			return n.loop.Dropped()
		})
	o.handlerLatency = r.Histogram("timewheel_handler_latency_seconds",
		"wall-clock time per event handler", obs.LatencyBuckets, obs.Seconds, nil)
	o.timerLateness = r.Histogram("timewheel_timer_lateness_seconds",
		"timer dispatch time past the armed deadline (OS slip + queueing)",
		obs.LatencyBuckets, obs.Seconds, nil)

	// Membership timeliness — the paper's claims, as distributions.
	o.viewInstall = r.Histogram("timewheel_view_install_latency_seconds",
		"leaving failure-free operation (or starting to join) to the next installed view",
		obs.LatencyBuckets, obs.Seconds, nil)
	o.electionSing = r.Histogram("timewheel_election_duration_seconds",
		"membership disagreement episode length, by election kind",
		obs.LatencyBuckets, obs.Seconds, obs.L("kind", "single"))
	o.electionReco = r.Histogram("timewheel_election_duration_seconds",
		"membership disagreement episode length, by election kind",
		obs.LatencyBuckets, obs.Seconds, obs.L("kind", "reconfig"))
	o.decisionLat = r.Histogram("timewheel_decision_latency_seconds",
		"decider tenure length for tenures that produced a decision",
		obs.LatencyBuckets, obs.Seconds, nil)
	o.suspicionLag = r.Histogram("timewheel_suspicion_reaction_seconds",
		"suspicion handler lag past the ts+2D expectation deadline",
		obs.LatencyBuckets, obs.Seconds, nil)

	// Broadcast.
	o.deliveryLag = r.Histogram("timewheel_delivery_lag_seconds",
		"proposer synchronized send time to local delivery (stability lag)",
		obs.LatencyBuckets, obs.Seconds, nil)

	// Transport: per-peer one-way delay is the timeliness-graph edge
	// weight, so the series are pre-created for every peer.
	o.sends = r.Counter("timewheel_transport_sends_total", "frames handed to the transport", nil)
	o.recvs = r.Counter("timewheel_transport_recvs_total", "frames decoded from the transport", nil)
	o.recvDrops = r.Counter("timewheel_transport_recv_drops_total",
		"received frames dropped (corrupt, or engine queue full)", nil)
	r.CounterFunc("timewheel_transport_send_errors_total",
		"datagram sends that failed (per-peer write errors; omissions are in-model but no longer invisible)", nil,
		func() uint64 {
			v := n.sendErrs.Load()
			if n.trSendErrs != nil {
				v += n.trSendErrs()
			}
			return v
		})
	o.slotbatchHeld = r.Counter("timewheel_slotbatch_held_events_total",
		"reactive events whose coalesced frames were held for a timer-path flush (SlotBatch mode)", nil)
	o.slotbatchFlushes = r.Counter("timewheel_slotbatch_flushes_total",
		"slot-edge backstop flushes fired (SlotBatch mode)", nil)

	// Trace-ring overflow accounting (process-wide ring, so multi-node
	// processes report the same number per node) and the live invariant
	// auditor's violation count.
	r.CounterFunc("timewheel_trace_dropped_total",
		"trace-ring events overwritten before any reader saw them", nil,
		tracer.Dropped)
	r.CounterFunc("timewheel_invariant_violations_total",
		"live §3 invariant violations detected by the auditor (fifo/duplicate/order/view checks)", nil,
		func() uint64 {
			if n.auditor == nil {
				return 0
			}
			return n.auditor.Violations()
		})
	o.peerDelay = make([]*obs.Histogram, n.cfg.ClusterSize)
	for p := 0; p < n.cfg.ClusterSize; p++ {
		if p == n.cfg.ID {
			continue
		}
		o.peerDelay[p] = r.Histogram("timewheel_peer_delay_seconds",
			"observed one-way delay per peer, from synchronized send timestamps",
			obs.LatencyBuckets, obs.Seconds, obs.L("peer", itoa(p)))
	}

	// Guard (nil-safe: the CounterFuncs read zero when disabled).
	r.CounterFunc("timewheel_guard_trips_total", "armed-to-tripped guard transitions", nil,
		func() uint64 {
			if n.guard == nil {
				return 0
			}
			return n.guard.Stats().Trips
		})
	r.CounterFunc("timewheel_guard_overruns_total", "handlers over HandlerBudget", nil,
		func() uint64 {
			if n.guard == nil {
				return 0
			}
			return n.guard.Stats().Overruns
		})
	r.CounterFunc("timewheel_guard_late_timers_total", "timers over TimerLateBudget", nil,
		func() uint64 {
			if n.guard == nil {
				return 0
			}
			return n.guard.Stats().LateTimers
		})
	r.CounterFunc("timewheel_guard_suppressed_sends_total", "control sends withheld while tripped", nil,
		func() uint64 {
			if n.guard == nil {
				return 0
			}
			return n.guard.Stats().SuppressedSends
		})
	r.GaugeFunc("timewheel_guard_tripped", "1 while the guard is tripped", nil,
		func() int64 {
			if n.guard == nil || !n.guard.Tripped() {
				return 0
			}
			return 1
		})

	// Durable.
	o.fsyncLat = r.Histogram("timewheel_wal_fsync_seconds",
		"write-ahead log fsync latency", obs.LatencyBuckets, obs.Seconds, nil)
	o.snapBytes = r.Histogram("timewheel_snapshot_bytes",
		"encoded snapshot sizes", obs.ByteBuckets, obs.Raw, nil)
	o.replaySize = r.Histogram("timewheel_replay_delta_records",
		"records per served rejoin replay delta", obs.CountBuckets, obs.Raw, nil)

	// Health + mirror bookkeeping.
	r.GaugeFunc("timewheel_member_state", "member.State as an integer (0=join..5=n-failure)", nil, o.state.Value)
	r.GaugeFunc("timewheel_in_view", "1 when a membership view is installed and current", nil, o.inView.Value)
	o.mirrorStale = r.Gauge("timewheel_mirror_stale",
		"1 when the last scrape could not refresh event-loop-confined counters (loop stalled)", nil)
	o.mirror = make(map[string]*obs.Counter, len(mirrorNames))
	for _, name := range mirrorNames {
		o.mirror[name] = r.Counter(name, "event-loop-confined protocol counter (mirrored on scrape)", nil)
	}
	return o
}

// registerAdaptive wires the adaptive-timeout instruments. The
// expect-overwrite counter is always registered (the fdetect bug it
// surfaces predates adaptation); the adapt_* series only exist when
// Adaptive is enabled. Gauges are exported in microseconds (suffix _us)
// because GaugeFunc carries no unit scaling; the histogram families
// remain the *_seconds source of truth for distributions.
func (o *nodeObs) registerAdaptive(n *Node) {
	r := o.reg
	r.CounterFunc("timewheel_fd_expect_overwrites_total",
		"armed failure-detector expectations replaced before firing", nil,
		func() uint64 { return n.core.Machine().Detector().ExpectOverwrites() })
	if n.adaptDelay == nil {
		return
	}
	r.CounterFunc("timewheel_adapt_widened_total",
		"per-peer suspicion grants widened by the delay estimator", nil,
		func() uint64 { return n.core.Machine().Detector().AdaptStats().Widened })
	r.CounterFunc("timewheel_adapt_shrunk_total",
		"per-peer suspicion grants shrunk past the hysteresis threshold", nil,
		func() uint64 { return n.core.Machine().Detector().AdaptStats().Shrunk })
	r.CounterFunc("timewheel_adapt_flap_boosts_total",
		"suspicion-triggered grant boosts to the ceiling (flap suppression)", nil,
		func() uint64 { return n.core.Machine().Detector().AdaptStats().FlapBoosts })
	r.GaugeFunc("timewheel_adapt_noise_handler_us",
		"EWMA of observed handler runtime feeding the adaptive guard budget (microseconds)", nil,
		func() int64 { return n.adaptNoise.HandlerEstimate().Microseconds() })
	r.GaugeFunc("timewheel_adapt_noise_lateness_us",
		"EWMA of observed scheduling lateness feeding the adaptive guard budget (microseconds)", nil,
		func() int64 { return n.adaptNoise.LatenessEstimate().Microseconds() })
	for p := 0; p < n.cfg.ClusterSize; p++ {
		if p == n.cfg.ID {
			continue
		}
		peer := model.ProcessID(p)
		r.GaugeFunc("timewheel_adapt_peer_deadline_us",
			"current adaptive expectation-deadline span granted to the peer (microseconds; 0 before first grant)",
			obs.L("peer", itoa(p)),
			func() int64 { return int64(n.core.Machine().Detector().DeadlineSpan(peer)) })
	}
}

// itoa avoids strconv in the hot-path file's imports for one call site.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func (o *nodeObs) emit(typ obs.EventType, a, b int64) { tracer.Emit(typ, o.id, a, b) }

// onWireEvent taps the membership machine's send/receive hot path with
// the causal context the v7 envelope carries. It packs everything into
// the event's two scalar arguments (A = causal chain timestamp, B =
// kind/peer/origin/slot via PackWireMeta), so the tap stays
// allocation-free and costs one atomic load while tracing is off.
func (o *nodeObs) onWireEvent(dir member.WireDir, kind wire.Kind, peer model.ProcessID, ctx wire.Causal) {
	typ := obs.EvWireSend
	if dir == member.WireRecv {
		typ = obs.EvWireRecv
	}
	p := uint16(obs.WirePeerBroadcast)
	if peer != model.NoProcess {
		p = uint16(peer)
	}
	o.emit(typ, ctx.TS, obs.PackWireMeta(uint8(kind), p, uint16(ctx.Origin), ctx.Slot))
}

// invariantCode maps auditor invariant names to the stable small
// integers the EvInvariant trace event carries in A.
func invariantCode(inv string) int64 {
	switch inv {
	case check.InvFIFOOrder:
		return 1
	case check.InvDuplicate:
		return 2
	case check.InvTotalOrder:
		return 3
	case check.InvTimeOrder:
		return 4
	case check.InvViewMonotonic:
		return 5
	case check.InvMajorityView:
		return 6
	default:
		return 0
	}
}

// fsmCounter lazily creates the {from,to} transition series (36
// possible; only the protocol's legal handful materialise).
func (o *nodeObs) fsmCounter(from, to member.State) *obs.Counter {
	if int(from) > 5 || int(to) > 5 {
		return nil
	}
	o.fsmMu.Lock()
	defer o.fsmMu.Unlock()
	c := o.fsmTransition[from][to]
	if c == nil {
		c = o.reg.Counter("timewheel_fsm_transitions_total",
			"membership state machine transitions",
			obs.L("from", from.String(), "to", to.String()))
		o.fsmTransition[from][to] = c
	}
	return c
}

// onStateChange is the member.Hooks.StateChange tap (event goroutine).
func (o *nodeObs) onStateChange(from, to member.State) {
	now := time.Now()
	o.fsmCounter(from, to).Inc()
	o.state.Set(int64(to))
	o.emit(obs.EvStateChange, int64(from), int64(to))

	switch {
	case to == member.StateJoin:
		// (Re)joining: the old view is gone.
		o.inView.Set(0)
		if o.episodeStart.IsZero() {
			o.episodeStart, o.sawNFailure = now, false
		}
		o.installAnchor = now
	case from == member.StateFailureFree && to != member.StateFailureFree:
		// Leaving failure-free operation: an election episode begins.
		o.episodeStart, o.sawNFailure = now, false
		o.installAnchor = now
		o.emit(obs.EvElectionStart, int64(to), 0)
	}
	if to == member.StateNFailure {
		o.sawNFailure = true
	}
	if to == member.StateFailureFree && !o.episodeStart.IsZero() {
		d := now.Sub(o.episodeStart)
		if o.sawNFailure {
			o.electionReco.ObserveDuration(d)
		} else {
			o.electionSing.ObserveDuration(d)
		}
		o.emit(obs.EvElectionEnd, int64(d), 0)
		o.episodeStart = time.Time{}
	}
}

// onViewChange is the member.Hooks.ViewChange tap (event goroutine).
func (o *nodeObs) onViewChange(g model.Group) {
	o.inView.Set(1)
	if !o.installAnchor.IsZero() {
		o.viewInstall.ObserveSince(o.installAnchor)
		o.installAnchor = time.Time{}
	}
	o.emit(obs.EvViewInstall, int64(g.Seq), int64(len(g.Members)))
}

// onDecider is the member.Hooks.Decider tap (event goroutine). how says
// how the tenure's decision went out: obs.DeciderHeld,
// DeciderEarlyOrdering, DeciderEarlyAckOnly or DeciderEarlyRelease.
func (o *nodeObs) onDecider(isDecider, sent bool, how int64) {
	if isDecider {
		o.tenureStart = time.Now()
		o.emit(obs.EvDeciderStart, 0, 0)
		return
	}
	if sent && !o.tenureStart.IsZero() {
		o.decisionLat.ObserveSince(o.tenureStart)
	}
	o.tenureStart = time.Time{}
	var a int64
	if sent {
		a = 1
	}
	o.emit(obs.EvDeciderEnd, a, how)
}

// onSuspicion is the member.Hooks.Suspicion tap (event goroutine).
// deadline and now are synchronized-clock microseconds.
func (o *nodeObs) onSuspicion(suspect model.ProcessID, deadline, now model.Time) {
	lagNs := int64(now-deadline) * int64(time.Microsecond)
	if lagNs < 0 {
		lagNs = 0
	}
	o.suspicionLag.Observe(lagNs)
	o.emit(obs.EvSuspicion, int64(suspect), lagNs)
}

// onRecv records a decoded frame from peer from, sent at sendTS
// (synchronized-clock microseconds). Transport goroutine context.
func (o *nodeObs) onRecv(from model.ProcessID, sendTS model.Time) {
	o.recvs.Inc()
	if int(from) >= 0 && int(from) < len(o.peerDelay) {
		delayNs := time.Now().UnixMicro() - int64(sendTS)
		delayNs *= int64(time.Microsecond)
		if delayNs < 0 {
			delayNs = 0 // clock skew within Epsilon can go slightly negative
		}
		o.peerDelay[from].Observe(delayNs)
	}
}

// refreshMirror copies the event-loop-confined member/broadcast Stats
// into the mirror counters by posting a command; a loop stalled past
// timeout leaves the previous values and flags timewheel_mirror_stale.
func (n *Node) refreshMirror(timeout time.Duration) {
	o := n.obs
	o.mirrorMu.Lock()
	defer o.mirrorMu.Unlock()
	done := make(chan struct{})
	posted := n.post(engine.Event{Type: engine.EvCommand, Cmd: func() {
		m := n.core.Machine().Stats()
		b := n.core.Broadcast().Stats()
		vals := []uint64{
			m.ViewChanges, m.SingleElections, m.ReconfigElections, m.WrongSuspicions,
			m.NDsSent, m.ReconfigsSent, m.JoinsSent, m.DecisionsSent, m.DecisionsEarly,
			m.Admissions, m.SelfExclusions,
			m.SuspicionsGossiped, m.RefutesSent, m.GossipRelays,
			m.GossipDuplicates, m.StaleSuspicions,
			b.Proposed, b.Delivered, b.DeliveredFast, b.Purged, b.Retransmits,
			b.StateFulls, b.StateDeltas, b.ReplayApplied,
		}
		for i, name := range mirrorNames {
			o.mirror[name].Store(vals[i])
		}
		close(done)
	}})
	if !posted {
		o.mirrorStale.Set(1)
		return
	}
	select {
	case <-done:
		o.mirrorStale.Set(0)
		o.lastMirrorAt = time.Now()
	case <-time.After(timeout):
		o.mirrorStale.Set(1)
	}
}

// WriteMetrics renders the node's full metric registry in Prometheus
// text exposition format, refreshing the event-loop-confined mirror
// first (bounded wait; a stalled loop yields stale mirror values,
// flagged by timewheel_mirror_stale, while every hot-path instrument
// stays live).
func (n *Node) WriteMetrics(w io.Writer) error {
	n.refreshMirror(defaultMirrorTimeout)
	return n.obs.reg.WritePrometheus(w)
}

// CounterValue returns a metric family's summed value by Prometheus
// name (e.g. "timewheel_guard_trips_total"); ok is false for unknown
// names. Lock-free with respect to the node's event loop.
func (n *Node) CounterValue(name string) (v uint64, ok bool) {
	return n.obs.reg.CounterValue(name)
}

// HistogramStat summarises a latency histogram by Prometheus name. For
// *_seconds families the fields are nanoseconds; for byte/count
// families they are in the family's raw unit.
type HistogramStat struct {
	Count              uint64
	Sum                int64
	P50, P90, P99, Max int64
}

// HistogramStat returns the summary of a histogram family (series
// merged) by Prometheus name; ok is false for unknown names.
func (n *Node) HistogramStat(name string) (HistogramStat, bool) {
	s, ok := n.obs.reg.HistogramSnapshot(name)
	if !ok {
		return HistogramStat{}, false
	}
	return HistogramStat{
		Count: s.Count,
		Sum:   s.Sum,
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}, true
}

// --- expvar --------------------------------------------------------------------

// liveNodes is the process-wide set of running nodes, exported once
// under the "timewheel" expvar key (expvar forbids re-publishing, and
// tests create many short-lived nodes).
var (
	liveMu    sync.Mutex
	liveNodes = map[*Node]struct{}{}
	expvarReg sync.Once
)

func registerExpvar(n *Node) {
	liveMu.Lock()
	liveNodes[n] = struct{}{}
	liveMu.Unlock()
	expvarReg.Do(func() {
		expvar.Publish("timewheel", expvar.Func(func() any {
			liveMu.Lock()
			nodes := make([]*Node, 0, len(liveNodes))
			for ln := range liveNodes {
				nodes = append(nodes, ln)
			}
			liveMu.Unlock()
			out := make(map[string][]obs.JSONMetric, len(nodes))
			for _, ln := range nodes {
				out[itoa(ln.cfg.ID)] = ln.obs.reg.Snapshot()
			}
			return out
		}))
	})
}

func unregisterExpvar(n *Node) {
	liveMu.Lock()
	delete(liveNodes, n)
	liveMu.Unlock()
}
