// Package scenario is the canonical library of protocol runs used by the
// integration tests, the twsim command, twbench's paper tables and the
// root package's Go benchmarks: group formation, the paper's failure
// cases (single crash, false suspicion, multiple crashes, partition,
// crash-recovery-rejoin) and broadcast workloads, each instrumented
// with the metrics the experiments report.
package scenario

import (
	"fmt"
	"sort"

	"timewheel/internal/model"
	"timewheel/internal/netsim"
	"timewheel/internal/node"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Result is the outcome of one scenario run.
type Result struct {
	Name    string
	Cluster *node.Cluster
	// Metrics are scenario-specific measurements (durations in
	// microseconds unless suffixed otherwise).
	Metrics map[string]float64
	// Failed is set when the scenario did not reach its expected final
	// condition.
	Failed string
}

func (r *Result) metric(name string, v float64) { r.Metrics[name] = v }

func (r *Result) fail(format string, args ...any) {
	if r.Failed == "" {
		r.Failed = fmt.Sprintf(format, args...)
	}
}

// MetricNames returns the metric keys in sorted order.
func (r *Result) MetricNames() []string {
	out := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func newResult(name string, c *node.Cluster) *Result {
	return &Result{Name: name, Cluster: c, Metrics: make(map[string]float64)}
}

func cluster(n int, seed int64) *node.Cluster {
	return node.NewCluster(node.Options{
		Seed:          seed,
		Params:        model.DefaultParams(n),
		PerfectClocks: true,
	})
}

func cyclesDur(c *node.Cluster, k int) model.Duration {
	return model.Duration(k) * c.Params.CycleLen()
}

// allIDs returns 0..n-1.
func allIDs(n int) []model.ProcessID {
	out := make([]model.ProcessID, n)
	for i := range out {
		out[i] = model.ProcessID(i)
	}
	return out
}

// agreedOn reports whether every live member of `want` has installed
// exactly that group.
func agreedOn(c *node.Cluster, want []model.ProcessID) bool {
	wantG := model.NewGroup(0, want)
	for _, id := range want {
		if c.Crashed(id) {
			continue
		}
		g, ok := c.Node(id).CurrentGroup()
		if !ok || !g.SameMembers(wantG) {
			return false
		}
	}
	return true
}

// runUntil advances the cluster in slot-sized steps until cond holds or
// the budget of cycles is exhausted; it returns the time cond first held
// and whether it did.
func runUntil(c *node.Cluster, maxCycles int, cond func() bool) (model.Time, bool) {
	steps := maxCycles * c.Params.N
	for i := 0; i < steps; i++ {
		if cond() {
			return c.Sim.Now(), true
		}
		c.Run(c.Params.SlotLen())
	}
	if cond() {
		return c.Sim.Now(), true
	}
	return c.Sim.Now(), false
}

// form boots the cluster and waits for the full group; it records the
// formation latency metric.
func form(r *Result) bool {
	c := r.Cluster
	c.Start()
	at, ok := runUntil(c, 8, func() bool { return agreedOn(c, allIDs(c.Params.N)) })
	if !ok {
		r.fail("initial group never formed")
		return false
	}
	r.metric("formation_us", float64(at))
	return true
}

// FailureFree runs a formed group for the given number of cycles and
// reports the membership-message counts (experiment E2: zero membership
// messages in failure-free periods) plus decision traffic.
func FailureFree(n int, seed int64, cycles int) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("failure-free/N=%d", n), c)
	if !form(r) {
		return r
	}
	before := c.Net.Stats()
	start := c.Sim.Now()
	c.Run(cyclesDur(c, cycles))
	after := c.Net.Stats()
	elapsed := float64(c.Sim.Now().Sub(start)) / 1e6 // seconds

	member := float64(after.Broadcasts[wire.KindJoin] - before.Broadcasts[wire.KindJoin])
	member += float64(after.Broadcasts[wire.KindNoDecision] - before.Broadcasts[wire.KindNoDecision])
	member += float64(after.Broadcasts[wire.KindReconfig] - before.Broadcasts[wire.KindReconfig])
	decisions := float64(after.Broadcasts[wire.KindDecision] - before.Broadcasts[wire.KindDecision])

	r.metric("membership_msgs", member)
	r.metric("decision_msgs", decisions)
	r.metric("decision_msgs_per_sec", decisions/elapsed)
	r.metric("max_decision_bytes", float64(after.MaxBytes[wire.KindDecision]))
	r.metric("cycles", float64(cycles))
	return r
}

// HeartbeatBaseline models the conventional alternative the paper's
// zero-overhead claim is implicitly compared against: every process
// pings every interval D. It returns the message count a heartbeat
// failure detector would have sent over the same span (analytically: one
// broadcast per process per D).
func HeartbeatBaseline(n int, cycles int, params model.Params) float64 {
	span := float64(int64(params.CycleLen()) * int64(cycles))
	return float64(n) * span / float64(params.D)
}

// SingleCrash crashes the current (or next) decider of a formed group
// and measures the view-change latency of the single-failure fast path
// (experiment E3).
func SingleCrash(n int, seed int64) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("single-crash/N=%d", n), c)
	if !form(r) {
		return r
	}
	victim := pickDecider(c)
	c.Crash(victim)
	crashAt := c.Sim.Now()

	survivors := remove(allIDs(n), victim)
	at, ok := runUntil(c, 6, func() bool { return agreedOn(c, survivors) })
	if !ok {
		r.fail("crash of %v never recovered", victim)
		return r
	}
	r.metric("recovery_us", float64(at.Sub(crashAt)))
	r.metric("recovery_over_D", float64(at.Sub(crashAt))/float64(c.Params.D))
	var singles, reconfigs, nds uint64
	for _, id := range survivors {
		st := c.Node(id).Machine().Stats()
		singles += st.SingleElections
		reconfigs += st.ReconfigElections
		nds += st.NDsSent
	}
	r.metric("single_elections", float64(singles))
	r.metric("reconfig_elections", float64(reconfigs))
	r.metric("nd_messages", float64(nds))
	if singles == 0 && reconfigs == 0 {
		r.fail("no election happened")
	}
	return r
}

// pickDecider returns the node currently holding (or about to hold) the
// decider role, falling back to the first member.
func pickDecider(c *node.Cluster) model.ProcessID {
	for _, n := range c.Nodes {
		if n.Machine().IsDecider() {
			return n.ID
		}
	}
	return c.Nodes[0].ID
}

func remove(ids []model.ProcessID, who model.ProcessID) []model.ProcessID {
	out := make([]model.ProcessID, 0, len(ids)-1)
	for _, id := range ids {
		if id != who {
			out = append(out, id)
		}
	}
	return out
}

// FalseSuspicion drops one decision message entirely, forcing a
// suspicion of a live decider, and verifies the wrong-suspicion path
// masks it: service continues, membership unchanged (experiment E4). It
// measures the interruption of the decision flow.
func FalseSuspicion(n int, seed int64) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("false-suspicion/N=%d", n), c)
	if !form(r) {
		return r
	}
	viewsBefore := 0
	for _, nd := range c.Nodes {
		viewsBefore += len(nd.Views)
	}

	// Drop every decision until the first no-decision appears: a live
	// decider is then under suspicion.
	dropping := true
	c.Net.AddFilter(func(from, to model.ProcessID, m wire.Message) (netsim.Verdict, model.Duration) {
		switch m.Kind() {
		case wire.KindDecision:
			if dropping {
				return netsim.Drop, 0
			}
		case wire.KindNoDecision:
			dropping = false
		}
		return netsim.Pass, 0
	})

	before := c.Sim.Now()
	// Let the suspicion and masking play out.
	c.Run(cyclesDur(c, 4))
	c.Net.ClearFilters()
	c.Run(cyclesDur(c, 2))

	viewsAfter := 0
	var ws uint64
	for _, nd := range c.Nodes {
		viewsAfter += len(nd.Views)
		ws += nd.Machine().Stats().WrongSuspicions
	}
	r.metric("views_installed", float64(viewsAfter-viewsBefore))
	r.metric("wrong_suspicions", float64(ws))
	// The paper expects (but cannot guarantee) masking: the suspect's
	// retransmission may itself be lost or late, in which case the live
	// process is excluded and readmitted. Report which outcome occurred;
	// either way the full group must stand at the end.
	masked := 0.0
	if viewsAfter == viewsBefore {
		masked = 1
	}
	r.metric("masked", masked)
	if ws == 0 {
		r.fail("no wrong-suspicion was provoked")
	}
	if _, ok := runUntil(c, 16, func() bool { return agreedOn(c, allIDs(c.Params.N)) }); !ok {
		r.fail("group not restored after false suspicion")
	}
	r.metric("masking_window_us", float64(c.Sim.Now().Sub(before)))
	return r
}

// MultiCrash crashes f members simultaneously and measures recovery via
// the reconfiguration election (experiment E5).
func MultiCrash(n, f int, seed int64) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("multi-crash/N=%d/f=%d", n, f), c)
	if !form(r) {
		return r
	}
	if n-f < c.Params.Majority() {
		r.fail("f too large for a majority to survive")
		return r
	}
	victims := allIDs(n)[1 : 1+f]
	for _, v := range victims {
		c.Crash(v)
	}
	crashAt := c.Sim.Now()
	survivors := allIDs(n)[:1]
	survivors = append(survivors, allIDs(n)[1+f:]...)

	at, ok := runUntil(c, 10, func() bool { return agreedOn(c, survivors) })
	if !ok {
		r.fail("%d simultaneous crashes never recovered", f)
		return r
	}
	r.metric("recovery_us", float64(at.Sub(crashAt)))
	r.metric("recovery_cycles", float64(at.Sub(crashAt))/float64(c.Params.CycleLen()))
	var reconfigs uint64
	for _, id := range survivors {
		reconfigs += c.Node(id).Machine().Stats().ReconfigElections
	}
	r.metric("reconfig_elections", float64(reconfigs))
	return r
}

// Rejoin crashes a member, lets the group shrink, recovers the member
// and measures the time until readmission (experiment E6's rejoin half).
func Rejoin(n int, seed int64) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("rejoin/N=%d", n), c)
	if !form(r) {
		return r
	}
	victim := model.ProcessID(n - 1)
	c.Crash(victim)
	if _, ok := runUntil(c, 6, func() bool { return agreedOn(c, remove(allIDs(n), victim)) }); !ok {
		r.fail("crash never detected")
		return r
	}
	c.Recover(victim)
	recoverAt := c.Sim.Now()
	at, ok := runUntil(c, 12, func() bool { return agreedOn(c, allIDs(n)) })
	if !ok {
		r.fail("recovered process never readmitted")
		return r
	}
	r.metric("rejoin_us", float64(at.Sub(recoverAt)))
	r.metric("rejoin_cycles", float64(at.Sub(recoverAt))/float64(c.Params.CycleLen()))
	return r
}

// Partition splits the group into a majority and a minority side,
// verifies the majority reconfigures while the minority stalls, then
// heals and waits for the full group (partition-healing experiment).
func Partition(n int, seed int64) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("partition/N=%d", n), c)
	if !form(r) {
		return r
	}
	maj := allIDs(n)[:c.Params.Majority()]
	min := allIDs(n)[c.Params.Majority():]
	c.Net.Partition(maj, min)
	splitAt := c.Sim.Now()

	at, ok := runUntil(c, 10, func() bool { return agreedOn(c, maj) })
	if !ok {
		r.fail("majority side never reconfigured")
		return r
	}
	r.metric("majority_reconfig_us", float64(at.Sub(splitAt)))
	// The minority must not have formed any sub-majority view.
	for _, id := range min {
		g, okG := c.Node(id).CurrentGroup()
		if okG && g.Size() < c.Params.Majority() {
			r.fail("minority member %v formed %v", id, g)
		}
	}
	c.Net.Heal()
	healAt := c.Sim.Now()
	at, ok = runUntil(c, 16, func() bool { return agreedOn(c, allIDs(n)) })
	if !ok {
		r.fail("healing never restored the full group")
		return r
	}
	r.metric("heal_us", float64(at.Sub(healAt)))
	return r
}

// Workload runs a formed group under a proposal load of the given
// semantics and measures delivery latency and throughput (broadcast
// experiments).
func Workload(n int, seed int64, sem oal.Semantics, proposals int) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("workload/N=%d/%v", n, sem), c)
	if !form(r) {
		return r
	}
	sendTimes := make(map[oal.ProposalID]model.Time)
	next := 0
	for next < proposals {
		// One proposal per D from a rotating proposer.
		proposer := c.Node(model.ProcessID(next % n))
		payload := []byte(fmt.Sprintf("u%d", next))
		beforeLen := len(proposer.Deliveries)
		_ = beforeLen
		if proposer.Propose(payload, sem) {
			next++
		}
		c.Run(c.Params.D)
	}
	// Drain.
	c.Run(cyclesDur(c, 6))

	// Collect send→deliver latencies on node 0 (any member works).
	n0 := c.Node(0)
	var lat []float64
	for _, d := range n0.Deliveries {
		sendTimes[d.ID] = model.Time(d.SendTS)
		lat = append(lat, float64(d.At.Sub(model.Time(d.SendTS))))
	}
	if len(lat) < proposals {
		r.fail("node 0 delivered %d of %d", len(lat), proposals)
	}
	r.metric("delivered", float64(len(lat)))
	r.metric("max_decision_bytes", float64(c.Net.Stats().MaxBytes[wire.KindDecision]))
	if len(lat) > 0 {
		sort.Float64s(lat)
		r.metric("latency_p50_us", lat[len(lat)/2])
		r.metric("latency_p99_us", lat[len(lat)*99/100])
		r.metric("latency_max_us", lat[len(lat)-1])
	}
	return r
}

// SlowMember injects chronic performance failures: every message from
// one member arrives 3x delta late. In the timed asynchronous model this
// is a failure mode distinct from a crash — the process runs, but its
// messages miss their deadlines. The protocol may exclude the slow
// member (its decisions miss the ts+2D windows) or mask individual
// lapses via wrong-suspicion; either way safety must hold and the group
// must keep operating. When the slowness ends, the member must be back
// in the group.
func SlowMember(n int, seed int64) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("slow-member/N=%d", n), c)
	if !form(r) {
		return r
	}
	slow := model.ProcessID(n - 1)
	lag := 3 * c.Params.Delta
	c.Net.AddFilter(func(from, to model.ProcessID, m wire.Message) (netsim.Verdict, model.Duration) {
		if from == slow {
			return netsim.Pass, lag
		}
		return netsim.Pass, 0
	})
	c.Run(cyclesDur(c, 10))

	// The non-slow members must still agree on SOME majority group.
	ref, ok := c.Node(0).CurrentGroup()
	if !ok || ref.Size() < c.Params.Majority() {
		r.fail("group lost under performance failures: %v", ref)
		return r
	}
	excluded := !ref.Contains(slow)
	r.metric("slow_member_excluded", btof(excluded))
	var ws uint64
	for _, nd := range c.Nodes {
		ws += nd.Machine().Stats().WrongSuspicions
	}
	r.metric("wrong_suspicions", float64(ws))

	// Slowness ends; the member must (re)converge into the full group.
	c.Net.ClearFilters()
	if _, ok := runUntil(c, 20, func() bool { return agreedOn(c, allIDs(n)) }); !ok {
		r.fail("slow member never reconverged after recovery")
	}
	return r
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// MixedChurn runs all nine ordering/atomicity combinations concurrently
// while the membership churns (repeated crash/recover of rotating
// victims). It is the §4.3 torture test: every delivery-condition path
// and purge rule runs against view changes.
func MixedChurn(n int, seed int64, rounds int) *Result {
	c := cluster(n, seed)
	r := newResult(fmt.Sprintf("mixed-churn/N=%d", n), c)
	if !form(r) {
		return r
	}
	sems := []oal.Semantics{
		{Order: oal.Unordered, Atomicity: oal.WeakAtomicity},
		{Order: oal.Unordered, Atomicity: oal.StrongAtomicity},
		{Order: oal.Unordered, Atomicity: oal.StrictAtomicity},
		{Order: oal.TotalOrder, Atomicity: oal.WeakAtomicity},
		{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity},
		{Order: oal.TotalOrder, Atomicity: oal.StrictAtomicity},
		{Order: oal.TimeOrder, Atomicity: oal.WeakAtomicity},
		{Order: oal.TimeOrder, Atomicity: oal.StrongAtomicity},
		{Order: oal.TimeOrder, Atomicity: oal.StrictAtomicity},
	}
	proposals := 0
	for round := 0; round < rounds; round++ {
		victim := model.ProcessID((round + 1) % n)
		// Load before the fault.
		for i, sm := range sems {
			who := model.ProcessID((round + i) % n)
			if c.Node(who).Propose([]byte(fmt.Sprintf("r%d-s%d", round, i)), sm) {
				proposals++
			}
			c.Run(c.Params.D / 2)
		}
		c.Crash(victim)
		c.Run(cyclesDur(c, 2))
		// Load while shrunk.
		for i, sm := range sems {
			who := model.ProcessID((round + i) % n)
			if who == victim {
				continue
			}
			if c.Node(who).Propose([]byte(fmt.Sprintf("r%d-t%d", round, i)), sm) {
				proposals++
			}
			c.Run(c.Params.D / 2)
		}
		c.Recover(victim)
		if _, ok := runUntil(c, 14, func() bool { return agreedOn(c, allIDs(n)) }); !ok {
			r.fail("round %d: recovery never completed", round)
			return r
		}
	}
	c.Run(cyclesDur(c, 8))
	r.metric("proposals", float64(proposals))
	var delivered float64
	for _, nd := range c.Nodes {
		delivered += float64(len(nd.Deliveries))
	}
	r.metric("deliveries_total", delivered)
	return r
}
