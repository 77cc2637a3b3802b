package main

import (
	"fmt"
	"testing"

	"timewheel/internal/check"
	"timewheel/internal/scenario"
)

// claimSeeds are the seeds the suite's tables average over.
var claimSeeds = []int64{1000, 1001, 1002}

// sound fails t unless r reached its expected end state with every §3
// invariant holding.
func sound(t *testing.T, r *scenario.Result) {
	t.Helper()
	if r.Failed != "" {
		t.Fatalf("%s: %s", r.Name, r.Failed)
	}
	if res := check.All(r.Cluster); !res.OK() {
		t.Fatalf("%s: %s", r.Name, res)
	}
}

// TestPaperClaims asserts the paper's headline claims on the simulator
// at each seed, rather than only through the golden tables' bytes.
func TestPaperClaims(t *testing.T) {
	for _, seed := range claimSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Run("E2", func(t *testing.T) {
				// Failure-free periods send no membership messages.
				for _, n := range []int{3, 5, 8, 16} {
					r := scenario.FailureFree(n, seed, 50)
					sound(t, r)
					if got := r.Metrics["membership_msgs"]; got != 0 {
						t.Errorf("N=%d: %v membership messages in a failure-free period", n, got)
					}
				}
			})
			t.Run("E3", func(t *testing.T) {
				// A single failure is handled by exactly N-2 no-decision
				// messages around the ring.
				for _, n := range []int{3, 5, 8, 12, 16} {
					r := scenario.SingleCrash(n, seed)
					sound(t, r)
					if got := r.Metrics["nd_messages"]; got != float64(n-2) {
						t.Errorf("N=%d: %v no-decision messages, want %d", n, got, n-2)
					}
				}
			})
			t.Run("E4", func(t *testing.T) {
				// A provoked false suspicion is masked, or the suspect is
				// excluded and readmitted: either way the full group
				// stands again (sound fails the run otherwise) and no
				// invariant breaks.
				r := scenario.FalseSuspicion(5, seed)
				sound(t, r)
				if r.Metrics["wrong_suspicions"] == 0 {
					t.Fatal("no false suspicion was provoked")
				}
				t.Logf("masked=%v, views installed=%v", r.Metrics["masked"], r.Metrics["views_installed"])
			})
			t.Run("E9", func(t *testing.T) {
				// Randomized faults never violate a §3 property.
				for _, r := range []*scenario.Result{
					scenario.SingleCrash(5, seed),
					scenario.MultiCrash(8, 2, seed),
					scenario.Partition(5, seed),
					scenario.Rejoin(5, seed),
					scenario.SlowMember(5, seed),
					scenario.Chaos(scenario.DefaultChaos(5, seed)),
				} {
					sound(t, r)
				}
			})
		})
	}
}
