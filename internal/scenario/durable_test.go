package scenario

import (
	"testing"

	"timewheel/internal/check"
	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// TestDurableRejoin is the acceptance test for the durable state
// subsystem: kill -9 a member, keep committing, restart it as a new
// protocol stack on the same data directory, and require identical
// application state with no full state transfer and no protocol
// invariant violations.
func TestDurableRejoin(t *testing.T) {
	for _, n := range []int{3, 5} {
		for seed := int64(1); seed <= 3; seed++ {
			r := DurableRejoinAt(n, seed, t.TempDir())
			if r.Failed != "" {
				t.Fatalf("N=%d seed=%d: %s", n, seed, r.Failed)
			}
			if r.Metrics["delta_rejoins"] < 1 {
				t.Fatalf("N=%d seed=%d: rejoin was not served as a delta", n, seed)
			}
			if res := check.All(r.Cluster); !res.OK() {
				t.Fatalf("N=%d seed=%d: invariants violated: %s", n, seed, res)
			}
			// Updates rebuilt from the log at recovery are not
			// deliveries of the new incarnation, and the warm rejoin
			// delivers only what the victim missed: no update is
			// listed twice.
			seen := map[oal.ProposalID]bool{}
			for _, d := range r.Cluster.Node(model.ProcessID(n - 1)).Deliveries {
				if seen[d.ID] {
					t.Fatalf("N=%d seed=%d: %v listed twice in the recovered node's deliveries", n, seed, d.ID)
				}
				seen[d.ID] = true
			}
		}
	}
}

// TestDurableRejoinRepeatedCrashes kills and restarts the same member
// twice on one data directory — the second recovery replays a store
// that already contains a snapshot written at the first rejoin's
// delta application plus later log records.
func TestDurableRejoinRepeatedCrashes(t *testing.T) {
	dir := t.TempDir()
	r := DurableRejoinAt(3, 7, dir)
	if r.Failed != "" {
		t.Fatalf("first crash cycle: %s", r.Failed)
	}
	c := r.Cluster
	victim := model.ProcessID(2)
	c.Crash(victim)
	if _, ok := runUntil(c, 6, func() bool { return agreedOn(c, remove(allIDs(3), victim)) }); !ok {
		t.Fatal("second crash never detected")
	}
	c.Recover(victim)
	if len(c.Node(victim).AppState()) == 0 {
		t.Fatal("second recovery lost the application state")
	}
	if _, ok := runUntil(c, 12, func() bool { return agreedOn(c, allIDs(3)) }); !ok {
		t.Fatal("second recovery never readmitted")
	}
	c.Run(cyclesDur(c, 6))
	if got, want := string(c.Node(victim).AppState()), string(c.Node(0).AppState()); got != want {
		t.Fatalf("state diverged after second recovery:\n victim %q\n node0  %q", got, want)
	}
	if res := check.All(c); !res.OK() {
		t.Fatalf("invariants violated: %s", res)
	}
}
