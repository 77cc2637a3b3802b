package scenario

import (
	"fmt"
	"testing"

	"timewheel/internal/check"
	"timewheel/internal/model"
	"timewheel/internal/node"
	"timewheel/internal/oal"
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

// Under load deciders stop waiting: decisions go out early, and every
// early decision orders at least one proposal — were the test in
// member.decideIfOrderable not exact, the role would spin round an idle
// ring and early decisions would outnumber the ordinals they assigned.
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
	if early == 0 || early > ordered {
		t.Fatalf("%d early decisions (of %d) for %d ordered proposals: want 0 < early <= ordered", early, sent, ordered)
	}
}
