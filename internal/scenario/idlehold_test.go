package scenario

import (
	"fmt"
	"testing"

	"timewheel/internal/check"
	"timewheel/internal/model"
	"timewheel/internal/netsim"
	"timewheel/internal/node"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// An idle group keeps its cadence: with nothing to order every decider
// waits out the D/2 hold, so 50 cycles carry exactly the decision counts
// of EXPERIMENTS.md E2 and not one decision is sent early.
func TestIdleGroupKeepsE2DecisionCount(t *testing.T) {
	for n, want := range map[int]float64{3: 525, 5: 875, 8: 1400, 16: 2800} {
		r := runChecked(t, FailureFree(n, 1, 50))
		if got := r.Metrics["decision_msgs"]; got != want {
			t.Errorf("N=%d: %v decisions in 50 idle cycles, E2 has %v", n, got, want)
		}
		if got := r.Metrics["membership_msgs"]; got != 0 {
			t.Errorf("N=%d: %v membership messages in an idle group", n, got)
		}
		for id := 0; id < n; id++ {
			if early := r.Cluster.Node(model.ProcessID(id)).Machine().Stats().DecisionsEarly; early != 0 {
				t.Errorf("N=%d: p%d sent %d early decisions with nothing to order", n, id, early)
			}
		}
	}
}

// Under load deciders stop waiting: decisions go out early, and each
// does work a delivery waits on — it orders a proposal, or it publishes
// an ack a Strong update still needs. Per ordinal that is one ordering
// decision plus at most need-1 ack-only ones (the ordering decider's own
// ack is the first of the need), so early <= ordered × need. Were the
// tests in member.decideIfOrderable not exact, the role would spin round
// an idle ring and early decisions would outrun that bound.
func TestEarlyDecisionsOrderWork(t *testing.T) {
	const n = 5
	c := node.NewCluster(node.Options{Seed: 7, Params: model.DefaultParams(n), PerfectClocks: true})
	c.Start()
	if _, ok := runUntil(c, 10, func() bool { return agreedOn(c, allIDs(n)) }); !ok {
		t.Fatal("initial group never formed")
	}
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	base := c.Node(0).Broadcast().HighestOrdinal()
	proposed := 0
	for slot := 0; slot < 20*n; slot++ {
		for i := 0; i < 3; i++ {
			if c.Node(model.ProcessID(proposed%n)).Propose([]byte(fmt.Sprintf("u%d", proposed)), sem) {
				proposed++
			}
		}
		c.Run(c.Params.SlotLen())
	}
	c.Run(cyclesDur(c, 4))
	if res := check.All(c); !res.OK() {
		t.Fatalf("invariants: %v", res)
	}
	var early, sent uint64
	for id := 0; id < n; id++ {
		st := c.Node(model.ProcessID(id)).Machine().Stats()
		early, sent = early+st.DecisionsEarly, sent+st.DecisionsSent
	}
	ordered := uint64(c.Node(0).Broadcast().HighestOrdinal() - base)
	if ordered != uint64(proposed) {
		t.Fatalf("%d proposals, %d ordinals assigned", proposed, ordered)
	}
	need := uint64(c.Params.Majority())
	if early == 0 || early > ordered*need {
		t.Fatalf("%d early decisions (of %d) for %d ordered proposals: want 0 < early <= ordered × %d", early, sent, ordered, need)
	}
}

// One Strong update into an idle group of five needs three acks. The
// decider that orders it carries its own; the next two deciders each
// publish theirs in an ack-only decision as they take the role, instead
// of waiting out a D/2 hold apiece. Then the group is idle again and holds
// no unpublished ack: 50 cycles carry exactly E2's decision count.
func TestStrongUpdateTakesOneOrderingAndTwoAckOnlyDecisions(t *testing.T) {
	const n = 5
	c := node.NewCluster(node.Options{Seed: 1, Params: model.DefaultParams(n), PerfectClocks: true})
	c.Start()
	if _, ok := runUntil(c, 10, func() bool { return agreedOn(c, allIDs(n)) }); !ok {
		t.Fatal("initial group never formed")
	}
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	counts := func() (early, ackOnly uint64) {
		for id := 0; id < n; id++ {
			st := c.Node(model.ProcessID(id)).Machine().Stats()
			early, ackOnly = early+st.DecisionsEarly, ackOnly+st.DecisionsAckOnly
		}
		return early, ackOnly
	}
	// A process's first proposal carries a clock-seeded sequence, a gap
	// the held decisions jump; propose it first and let the group settle.
	if !c.Node(1).Propose([]byte("warm-up"), sem) {
		t.Fatal("warm-up proposal refused")
	}
	c.Run(cyclesDur(c, 4))
	early0, ack0 := counts()
	base := c.Node(0).Broadcast().HighestOrdinal()
	if !c.Node(1).Propose([]byte("strong"), sem) {
		t.Fatal("proposal refused")
	}
	c.Run(cyclesDur(c, 4))
	early, ackOnly := counts()
	if got := c.Node(0).Broadcast().HighestOrdinal() - base; got != 1 {
		t.Fatalf("%d ordinals assigned for one proposal", got)
	}
	if early-early0 != 3 || ackOnly-ack0 != 2 {
		t.Fatalf("one strong update: %d early decisions, %d of them ack-only; want 1 ordering + 2 ack-only", early-early0, ackOnly-ack0)
	}
	for id := 0; id < n; id++ {
		if got := c.Node(model.ProcessID(id)).Broadcast().Stats().Delivered; got != 2 {
			t.Fatalf("p%d delivered %d updates, want 2", id, got)
		}
	}
	before := c.Net.Stats().Broadcasts[wire.KindDecision]
	c.Run(cyclesDur(c, 50))
	if got := c.Net.Stats().Broadcasts[wire.KindDecision] - before; got != 875 {
		t.Fatalf("%d decisions in the next 50 idle cycles, E2 has 875", got)
	}
	if e, a := counts(); e != early || a != ackOnly {
		t.Fatalf("idle cycles sent %d early decisions (%d ack-only)", e-early, a-ackOnly)
	}
}

// One time-ordered Strict update into an idle group of five, every
// message taking one delay: the decider that orders it carries its own
// ack and the next four publish theirs, each in an ack-only decision sent
// as it takes the role. Then nothing is orderable and no ack is awaited,
// but no decision has passed the update's settle point (SendTS+δ+ε): the
// decider sends one release decision at exactly that point, and every
// member delivers the update a message delay later, instead of at
// whichever decision happens to come after it. Then the group is idle
// again: 50 cycles carry exactly E2's decision count.
func TestTimeStrictUpdateTakesOneReleaseDecision(t *testing.T) {
	const n = 5
	params := model.DefaultParams(n)
	delay := params.Delta / 10
	c := node.NewCluster(node.Options{Seed: 1, Params: params, PerfectClocks: true, Delay: netsim.ConstantDelay(delay)})
	c.Start()
	if _, ok := runUntil(c, 10, func() bool { return agreedOn(c, allIDs(n)) }); !ok {
		t.Fatal("initial group never formed")
	}
	sem := oal.Semantics{Order: oal.TimeOrder, Atomicity: oal.StrictAtomicity}
	counts := func() (early, ackOnly, release uint64) {
		for id := 0; id < n; id++ {
			st := c.Node(model.ProcessID(id)).Machine().Stats()
			early, ackOnly, release = early+st.DecisionsEarly, ackOnly+st.DecisionsAckOnly, release+st.DecisionsRelease
		}
		return early, ackOnly, release
	}
	// A process's first proposal carries a clock-seeded sequence, a gap
	// the held decisions jump; propose it first and let the group settle.
	if !c.Node(1).Propose([]byte("warm-up"), sem) {
		t.Fatal("warm-up proposal refused")
	}
	c.Run(cyclesDur(c, 4))
	early0, ack0, rel0 := counts()
	if !c.Node(1).Propose([]byte("strict"), sem) {
		t.Fatal("proposal refused")
	}
	c.Run(cyclesDur(c, 4))
	early, ackOnly, release := counts()
	if early-early0 != 6 || ackOnly-ack0 != 4 || release-rel0 != 1 {
		t.Fatalf("one time/strict update: %d early decisions, %d ack-only, %d release; want 1 ordering + 4 ack-only + 1 release",
			early-early0, ackOnly-ack0, release-rel0)
	}
	bound := params.Delta + params.Epsilon + 2*delay
	for id := 0; id < n; id++ {
		ds := c.Node(model.ProcessID(id)).Deliveries
		if len(ds) != 2 {
			t.Fatalf("p%d delivered %d updates, want 2", id, len(ds))
		}
		if d := ds[1]; d.At.Sub(model.Time(d.SendTS)) > bound {
			t.Errorf("p%d delivered the update %v after it was sent, want within δ+ε plus two message delays = %v",
				id, d.At.Sub(model.Time(d.SendTS)), bound)
		}
	}
	before := c.Net.Stats().Broadcasts[wire.KindDecision]
	c.Run(cyclesDur(c, 50))
	if got := c.Net.Stats().Broadcasts[wire.KindDecision] - before; got != 875 {
		t.Fatalf("%d decisions in the next 50 idle cycles, E2 has 875", got)
	}
	if e, _, _ := counts(); e != early {
		t.Fatalf("idle cycles sent %d early decisions", e-early)
	}
}
