package node

import (
	"testing"

	"timewheel/internal/member"
	"timewheel/internal/model"
	"timewheel/internal/netsim"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

func perfectCluster(n int, seed int64) *Cluster {
	return NewCluster(Options{
		Seed:          seed,
		Params:        model.DefaultParams(n),
		PerfectClocks: true,
	})
}

// formed reports whether every live node has installed an identical
// group containing exactly the given members.
func formed(c *Cluster, want []model.ProcessID) bool {
	wantG := model.NewGroup(0, want)
	for _, n := range c.Nodes {
		if n.crashed {
			continue
		}
		if !wantG.Contains(n.ID) {
			continue // non-members are allowed to still be joining
		}
		g, ok := n.CurrentGroup()
		if !ok || !g.SameMembers(wantG) {
			return false
		}
	}
	return true
}

func cycles(c *Cluster, k int) model.Duration {
	return model.Duration(k) * c.Params.CycleLen()
}

func TestInitialGroupFormation(t *testing.T) {
	c := perfectCluster(5, 1)
	c.Start()
	c.Run(cycles(c, 4))
	all := []model.ProcessID{0, 1, 2, 3, 4}
	if !formed(c, all) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v", n.ID, n.State(), n.Machine().Group())
		}
		t.Fatalf("initial group not formed after 4 cycles")
	}
	// Every member installed the same first view.
	ref := c.Nodes[0].Views[0].Group
	for _, n := range c.Nodes {
		if len(n.Views) == 0 || !n.Views[0].Group.Equal(ref) {
			t.Fatalf("p%d views: %v", n.ID, n.Views)
		}
	}
}

func TestFormationAcrossTeamSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 13} {
		c := perfectCluster(n, int64(n))
		c.Start()
		c.Run(cycles(c, 5))
		var all []model.ProcessID
		for i := 0; i < n; i++ {
			all = append(all, model.ProcessID(i))
		}
		if !formed(c, all) {
			t.Errorf("N=%d: group not formed", n)
		}
	}
}

func TestFailureFreeSendsNoMembershipMessages(t *testing.T) {
	c := perfectCluster(5, 2)
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("formation failed")
	}
	before := c.Net.Stats()
	c.Run(cycles(c, 20))
	after := c.Net.Stats()

	// The paper's headline claim: in failure-free periods the membership
	// protocol sends zero messages. Only decisions (the broadcast
	// protocol's own traffic) flow.
	for _, k := range []wire.Kind{wire.KindJoin, wire.KindNoDecision, wire.KindReconfig} {
		if d := after.Broadcasts[k] - before.Broadcasts[k]; d != 0 {
			t.Errorf("%v messages during failure-free period: %d", k, d)
		}
	}
	if d := after.Broadcasts[wire.KindDecision] - before.Broadcasts[wire.KindDecision]; d == 0 {
		t.Errorf("no decisions flowed — group is not live")
	}
}

func TestDeciderRotation(t *testing.T) {
	c := perfectCluster(3, 3)
	c.Start()
	c.Run(cycles(c, 8))
	// Every member must have sent decisions (the role rotates).
	for _, n := range c.Nodes {
		if n.Machine().Stats().DecisionsSent == 0 {
			t.Errorf("p%d never held the decider role", n.ID)
		}
	}
}

func TestSingleFailureElectionRemovesCrashedDecider(t *testing.T) {
	c := perfectCluster(5, 4)
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("formation failed")
	}
	// Crash whoever is currently decider (or about to be).
	victim := model.ProcessID(2)
	c.Crash(victim)
	crashAt := c.Sim.Now()
	c.Run(cycles(c, 3))

	want := []model.ProcessID{0, 1, 3, 4}
	if !formed(c, want) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v", n.ID, n.State(), n.Machine().Group())
		}
		t.Fatalf("crashed decider not removed")
	}
	// The removal went through the single-failure fast path, not the
	// reconfiguration protocol.
	var singles, reconfigs uint64
	for _, n := range c.Nodes {
		if n.ID == victim {
			continue
		}
		st := n.Machine().Stats()
		singles += st.SingleElections
		reconfigs += st.ReconfigElections
	}
	if singles != 1 {
		t.Errorf("single-failure elections: %d, want 1", singles)
	}
	if reconfigs != 0 {
		t.Errorf("reconfiguration elections: %d, want 0", reconfigs)
	}
	// Recovery was fast: well within one cycle plus the detection bound.
	var worst model.Time
	for _, n := range c.Nodes {
		if n.ID == victim {
			continue
		}
		last := n.Views[len(n.Views)-1]
		if !last.Group.SameMembers(model.NewGroup(0, want)) {
			t.Fatalf("p%d last view: %v", n.ID, last.Group)
		}
		if last.At > worst {
			worst = last.At
		}
	}
	bound := model.Duration(4*c.Params.D) + cycles(c, 1)
	if got := worst.Sub(crashAt); got > bound {
		t.Errorf("single-failure recovery took %v, bound %v", got, bound)
	}
}

func TestFalseSuspicionDoesNotChangeMembership(t *testing.T) {
	c := perfectCluster(5, 5)
	c.Start()
	c.Run(cycles(c, 4))
	all := []model.ProcessID{0, 1, 2, 3, 4}
	if !formed(c, all) {
		t.Fatalf("formation failed")
	}
	viewsBefore := make(map[model.ProcessID]int)
	for _, n := range c.Nodes {
		viewsBefore[n.ID] = len(n.Views)
	}

	// Drop the next decision entirely: every member suspects the silent
	// decider, but the decider is alive and resends on the first
	// no-decision — a false alarm that must be masked.
	dropped := false
	c.Net.AddFilter(func(from, to model.ProcessID, m wire.Message) (netsim.Verdict, model.Duration) {
		if m.Kind() == wire.KindDecision && !dropped {
			return netsim.Drop, 0
		}
		if m.Kind() == wire.KindDecision {
			return netsim.Pass, 0
		}
		// Stop dropping after the first no-decision appears.
		if m.Kind() == wire.KindNoDecision {
			dropped = true
		}
		return netsim.Pass, 0
	})
	c.Run(cycles(c, 4))
	c.Net.ClearFilters()
	c.Run(cycles(c, 2))

	if !formed(c, all) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v stats=%+v", n.ID, n.State(), n.Machine().Group(), n.Machine().Stats())
		}
		t.Fatalf("false suspicion changed membership")
	}
	// No node installed a new view.
	for _, n := range c.Nodes {
		if len(n.Views) != viewsBefore[n.ID] {
			t.Errorf("p%d installed a new view on a false alarm: %v", n.ID, n.Views)
		}
	}
	// At least one node passed through wrong-suspicion.
	var ws uint64
	for _, n := range c.Nodes {
		ws += n.Machine().Stats().WrongSuspicions
	}
	if ws == 0 {
		t.Errorf("no node entered wrong-suspicion")
	}
}

func TestMultipleFailureReconfiguration(t *testing.T) {
	c := perfectCluster(5, 6)
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("formation failed")
	}
	// Two simultaneous crashes: the single-failure protocol cannot
	// complete (its ring is broken), forcing the time-slotted election.
	c.Crash(1)
	c.Crash(2)
	c.Run(cycles(c, 6))

	want := []model.ProcessID{0, 3, 4}
	if !formed(c, want) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v", n.ID, n.State(), n.Machine().Group())
		}
		t.Fatalf("double failure not recovered")
	}
	var reconfigs uint64
	for _, id := range want {
		reconfigs += c.Node(id).Machine().Stats().ReconfigElections
	}
	if reconfigs == 0 {
		t.Errorf("recovery did not use the reconfiguration election")
	}
}

func TestCrashRecoveryRejoin(t *testing.T) {
	c := perfectCluster(5, 7)
	c.Start()
	c.Run(cycles(c, 4))
	all := []model.ProcessID{0, 1, 2, 3, 4}
	if !formed(c, all) {
		t.Fatalf("formation failed")
	}
	c.Crash(4)
	c.Run(cycles(c, 3))
	if !formed(c, []model.ProcessID{0, 1, 2, 3}) {
		t.Fatalf("crash not detected")
	}
	c.Recover(4)
	c.Run(cycles(c, 6))
	if !formed(c, all) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v inc=%d", n.ID, n.State(), n.Machine().Group(), n.Incarnation)
		}
		t.Fatalf("recovered process not readmitted")
	}
	n4 := c.Node(4)
	if n4.State() != member.StateFailureFree {
		t.Fatalf("p4 state after rejoin: %v", n4.State())
	}
	// Rejoin went through an admission at some decider.
	var admissions uint64
	for _, n := range c.Nodes {
		admissions += n.Machine().Stats().Admissions
	}
	if admissions == 0 {
		t.Errorf("no admission recorded")
	}
}

func TestMajorityPartitionContinuesMinorityStalls(t *testing.T) {
	c := perfectCluster(5, 8)
	c.Start()
	c.Run(cycles(c, 4))
	all := []model.ProcessID{0, 1, 2, 3, 4}
	if !formed(c, all) {
		t.Fatalf("formation failed")
	}
	maj := []model.ProcessID{0, 1, 2}
	min := []model.ProcessID{3, 4}
	c.Net.Partition(maj, min)
	c.Run(cycles(c, 8))

	// Majority side reconfigures to {0,1,2}.
	for _, id := range maj {
		g, ok := c.Node(id).CurrentGroup()
		if !ok || !g.SameMembers(model.NewGroup(0, maj)) {
			t.Fatalf("majority member p%d group: %v (ok=%v)", id, g, ok)
		}
	}
	// Minority side must never form a group of two.
	for _, id := range min {
		g, ok := c.Node(id).CurrentGroup()
		if ok && len(g.Members) < c.Params.Majority() {
			t.Fatalf("minority member p%d formed sub-majority group %v", id, g)
		}
	}

	// Healing: the minority rejoins.
	c.Net.Heal()
	c.Run(cycles(c, 10))
	if !formed(c, all) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v", n.ID, n.State(), n.Machine().Group())
		}
		t.Fatalf("partition healing did not restore the full group")
	}
}

func TestBroadcastAcrossViewChange(t *testing.T) {
	c := perfectCluster(5, 9)
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("formation failed")
	}
	// Steady stream of total-order proposals while the decider crashes.
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	c.Node(0).Propose([]byte("u1"), sem)
	c.Run(cycles(c, 1))
	c.Node(3).Propose([]byte("u2"), sem)
	c.Crash(1)
	c.Node(4).Propose([]byte("u3"), sem)
	c.Run(cycles(c, 3))
	c.Node(0).Propose([]byte("u4"), sem)
	c.Run(cycles(c, 4))

	// All survivors delivered the same totally-ordered sequence
	// containing all four updates.
	ref := c.Node(0).Deliveries
	if len(ref) != 4 {
		t.Fatalf("p0 delivered %d updates: %v", len(ref), ref)
	}
	for _, id := range []model.ProcessID{3, 4} {
		got := c.Node(id).Deliveries
		if len(got) != len(ref) {
			t.Fatalf("p%d delivered %d, want %d", id, len(got), len(ref))
		}
		for i := range ref {
			if string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("p%d order diverges at %d: %q vs %q", id, i, got[i].Payload, ref[i].Payload)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	trace := func() []string {
		c := perfectCluster(5, 77)
		c.Start()
		c.Run(cycles(c, 3))
		c.Crash(2)
		c.Run(cycles(c, 5))
		var out []string
		for _, n := range c.Nodes {
			for _, v := range n.Views {
				out = append(out, v.Group.String()+"@"+v.At.String())
			}
		}
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic view counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestClusterWithDriftingClocksAndSync(t *testing.T) {
	c := NewCluster(Options{
		Seed:           11,
		Params:         model.DefaultParams(5),
		PerfectClocks:  false,
		MaxClockOffset: model.DefaultParams(5).Epsilon,
	})
	c.Start()
	c.Run(cycles(c, 6))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v synced=%v", n.ID, n.State(), n.Machine().Group(), n.adj.Synced)
		}
		t.Fatalf("formation failed with drifting clocks")
	}
	// Crash the decider; recovery must still work on synchronized (not
	// perfect) clocks.
	c.Crash(0)
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{1, 2, 3, 4}) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v group=%v", n.ID, n.State(), n.Machine().Group())
		}
		t.Fatalf("recovery failed with drifting clocks")
	}
}

func TestLossyNetworkStillConverges(t *testing.T) {
	c := NewCluster(Options{
		Seed:          13,
		Params:        model.DefaultParams(5),
		PerfectClocks: true,
		Drop:          0.02,
	})
	c.Start()
	c.Run(cycles(c, 10))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		// Under loss the group may legitimately have excluded a member;
		// require only that SOME majority group is agreed by its members.
		var found bool
		for _, n := range c.Nodes {
			g, ok := n.CurrentGroup()
			if ok && len(g.Members) >= c.Params.Majority() {
				found = true
			}
		}
		if !found {
			t.Fatalf("no majority group under 2%% loss")
		}
	}
}

func TestFailAwarenessThroughStack(t *testing.T) {
	// The paper's §3 fail-awareness: the minority side of a partition
	// KNOWS its view is not up to date.
	c := perfectCluster(5, 21)
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("formation failed")
	}
	for _, n := range c.Nodes {
		if !n.Machine().UpToDate() {
			t.Fatalf("p%d not up to date after formation", n.ID)
		}
	}
	c.Net.Partition([]model.ProcessID{0, 1, 2}, []model.ProcessID{3, 4})
	c.Run(cycles(c, 8))
	for _, id := range []model.ProcessID{0, 1, 2} {
		if !c.Node(id).Machine().UpToDate() {
			t.Errorf("majority member p%v lost fail-aware up-to-date", id)
		}
	}
	for _, id := range []model.ProcessID{3, 4} {
		if c.Node(id).Machine().UpToDate() {
			t.Errorf("minority member p%v claims an up-to-date view", id)
		}
	}
}

func TestSequenceUniquenessAcrossRecovery(t *testing.T) {
	// A crash-recovered proposer must never reuse a proposal ID from its
	// earlier life (volatile state is lost; sequences are clock-seeded).
	c := perfectCluster(5, 22)
	c.Start()
	c.Run(cycles(c, 4))
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.WeakAtomicity}
	c.Node(4).Propose([]byte("before"), sem)
	c.Run(cycles(c, 1))
	c.Crash(4)
	c.Run(cycles(c, 3))
	c.Recover(4)
	c.Run(cycles(c, 8))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("rejoin failed")
	}
	if !c.Node(4).Propose([]byte("after"), sem) {
		t.Fatalf("rejoined node cannot propose")
	}
	c.Run(cycles(c, 4))
	// Collect all p4-proposed IDs seen at p0: no duplicates with
	// different payload epochs.
	seen := make(map[uint64]int)
	for _, d := range c.Node(0).Deliveries {
		if d.ID.Proposer == 4 {
			seen[d.ID.Seq]++
			if seen[d.ID.Seq] > 1 {
				t.Fatalf("sequence %d reused by recovered proposer", d.ID.Seq)
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("expected both updates delivered, got %d", len(seen))
	}
}

func TestLargeTeamFormationAndRecovery(t *testing.T) {
	// The AckSet representation supports teams up to 64; exercise a
	// deep ring (N=33) through formation, a decider crash, and the
	// fast-path election.
	const n = 33
	c := perfectCluster(n, 333)
	c.Start()
	c.Run(cycles(c, 5))
	var all []model.ProcessID
	for i := 0; i < n; i++ {
		all = append(all, model.ProcessID(i))
	}
	if !formed(c, all) {
		t.Fatalf("N=%d formation failed", n)
	}
	c.Crash(7)
	c.Run(cycles(c, 3))
	want := make([]model.ProcessID, 0, n-1)
	for i := 0; i < n; i++ {
		if i != 7 {
			want = append(want, model.ProcessID(i))
		}
	}
	if !formed(c, want) {
		for _, nd := range c.Nodes[:10] {
			t.Logf("p%d: state=%v group=%v", nd.ID, nd.State(), nd.Machine().Group())
		}
		t.Fatalf("N=%d crash recovery failed", n)
	}
	var singles uint64
	for _, nd := range c.Nodes {
		singles += nd.Machine().Stats().SingleElections
	}
	if singles != 1 {
		t.Errorf("single elections: %d", singles)
	}
}

func TestTerminationSemanticsThroughSimStack(t *testing.T) {
	// A proposal made just before the group collapses below majority is
	// reported abandoned to its proposer through the termination window.
	params := model.DefaultParams(3)
	c := NewCluster(Options{Seed: 55, Params: params, PerfectClocks: true})
	// Rebuild node 0's broadcast config is not exposed; instead verify
	// the broadcast-level semantic through the machine-driven sweep: use
	// the Broadcast directly on the live node.
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2}) {
		t.Fatalf("formation failed")
	}
	// Arm a window retroactively via the exposed CheckTermination: the
	// node package does not configure OnOutcome, so this is covered by
	// the broadcast unit tests; here we only assert the sweep is driven
	// by the machine (no panic, no stall) while proposals flow.
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	c.Node(0).Propose([]byte("u"), sem)
	c.Run(cycles(c, 3))
	if len(c.Node(1).Deliveries) != 1 {
		t.Fatalf("delivery missing")
	}
}

func TestClusterWithRoundTripSync(t *testing.T) {
	// The full protocol stack over the fail-aware round-trip clock
	// synchronization: rounds are adopted only when the measured error
	// bound fits epsilon, so the network must allow it.
	params := model.DefaultParams(5)
	c := NewCluster(Options{
		Seed:           17,
		Params:         params,
		PerfectClocks:  false,
		RoundTripSync:  true,
		MaxClockOffset: params.Epsilon,
		Delay:          netsim.UniformDelay(params.Epsilon/4, params.Epsilon-1),
	})
	c.Start()
	c.Run(cycles(c, 6))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		for _, n := range c.Nodes {
			t.Logf("p%d: state=%v synced=%v", n.ID, n.State(), n.adj.Synced)
		}
		t.Fatalf("formation failed with round-trip sync")
	}
	c.Crash(1)
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 2, 3, 4}) {
		t.Fatalf("recovery failed with round-trip sync")
	}
}

// A failure-free group ships no full oal on a cadence. Once every member
// has decided in the formed, loaded group, its count of full decisions
// stays where it was however long the load lasts, while its delta
// decisions keep growing: only elections, membership changes and a
// peer's OALReq force a full oal, and a failure-free group has none. (An
// idle group's decisions carry the empty oal whole: a delta would be no
// smaller.)
func TestLoadedGroupShipsNoPeriodicFullOAL(t *testing.T) {
	const n = 5
	c := perfectCluster(n, 4)
	c.Start()
	c.Run(cycles(c, 4))
	if !formed(c, []model.ProcessID{0, 1, 2, 3, 4}) {
		t.Fatalf("formation failed")
	}
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	proposed := 0
	load := func(cycles int) {
		for s := 0; s < cycles*n; s++ {
			for k := 0; k < 4; k++ {
				if !c.Node(model.ProcessID(proposed%n)).Propose([]byte("update"), sem) {
					t.Fatalf("p%d refused a proposal", proposed%n)
				}
				proposed++
			}
			c.Run(c.Params.SlotLen())
		}
	}
	load(1) // every member decides in the formed group
	full := make([]uint64, n)
	delta := make([]uint64, n)
	for i, nd := range c.Nodes {
		st := nd.Broadcast().Stats()
		full[i], delta[i] = st.DecisionsFull, st.DecisionsDelta
	}
	const loaded = 40
	load(loaded)
	for i, nd := range c.Nodes {
		st := nd.Broadcast().Stats()
		if st.DecisionsFull != full[i] {
			t.Errorf("p%d shipped %d full oals in %d loaded failure-free cycles", nd.ID, st.DecisionsFull-full[i], loaded)
		}
		if st.DecisionsDelta < delta[i]+loaded {
			t.Errorf("p%d shipped %d delta decisions in %d cycles, want at least one a cycle", nd.ID, st.DecisionsDelta-delta[i], loaded)
		}
	}
	c.Run(cycles(c, 4))
	for _, nd := range c.Nodes {
		if got := nd.Broadcast().Stats().Delivered; got != uint64(proposed) {
			t.Errorf("p%d delivered %d of %d updates", nd.ID, got, proposed)
		}
	}
}
