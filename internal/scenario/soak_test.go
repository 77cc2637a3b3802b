package scenario

import (
	"flag"
	"testing"

	"timewheel/internal/check"
)

var chaosSeeds = flag.Int("chaos.seeds", 500, "TestChaosSweep runs Chaos seeds 0 to chaos.seeds-1")

// TestChaosSweep runs the randomized fault schedule across 500 seeds
// (-chaos.seeds sets how many) — the soak that historically surfaced most
// of the protocol races listed in EXPERIMENTS.md. Every run must end with
// the full group re-formed and zero invariant violations.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	bad := 0
	for seed := int64(0); seed < int64(*chaosSeeds); seed++ {
		r := Chaos(DefaultChaos(5, seed))
		if r.Failed != "" {
			t.Errorf("seed %d: %s", seed, r.Failed)
			bad++
			continue
		}
		if res := check.All(r.Cluster); !res.OK() {
			t.Errorf("seed %d: %s", seed, res)
			bad++
		}
		if bad > 5 {
			t.Fatalf("too many bad seeds; aborting sweep")
		}
	}
}

// TestSurvivalAssumptionFallback pins the n-failure fallback: seed 424
// historically produced a run where the knowledge of "the last group"
// ended up split across two dead forks — no process could assemble a
// majority from its own last group, deadlocking every reconfiguration
// election (a violation of the paper's survival assumption). The
// fallback to the join protocol must resolve it.
func TestSurvivalAssumptionFallback(t *testing.T) {
	r := Chaos(DefaultChaos(5, 424))
	if r.Failed != "" {
		t.Fatalf("%s", r.Failed)
	}
	if res := check.All(r.Cluster); !res.OK() {
		t.Fatalf("invariants: %s", res)
	}
	if !agreedOn(r.Cluster, allIDs(5)) {
		t.Fatalf("full group not re-formed")
	}
}

// TestStalledElectionSeeds pins two schedules that wedge or overrun when
// decision timing shifts (as it does once deciders stop waiting out their
// hold with work pending): seed 313 left p2 parked in 1-failure-send on a
// stale group with no armed expectation, forever — the same class as the
// two-member wedge — and seed 373 re-formed only just after the deadline.
// Every single-failure election state now has an exit armed (see
// member.Machine.inSingleElection); both must end with the full group.
func TestStalledElectionSeeds(t *testing.T) {
	for _, seed := range []int64{313, 373} {
		r := Chaos(DefaultChaos(5, seed))
		if r.Failed != "" {
			t.Fatalf("seed %d: %s", seed, r.Failed)
		}
		if res := check.All(r.Cluster); !res.OK() {
			t.Fatalf("seed %d: invariants: %s", seed, res)
		}
		if !agreedOn(r.Cluster, allIDs(5)) {
			t.Fatalf("seed %d: full group not re-formed", seed)
		}
	}
}

// TestReformationSeeds pins schedules in which a group re-formed around
// a joiner that still held a longer view of the lineage before it. The
// joiner refused every decision of the new lineage as a "shorter log"
// until that log outgrew its stale one, while the group excluded and
// readmitted it every few slots. In seeds 1218, 1273 and 1566 the full
// group never re-formed. In seed 488 the joiner meanwhile delivered two
// weak/unordered updates on receipt, the group ordered and truncated
// them, and once admitted the joiner still listed them as
// delivered-but-unordered: the next election ordered them a second time,
// and p2 delivered both twice (§3 no-dup). A newer lineage's decision is
// now adopted however short its log, and a state transfer drops the dpd
// entries its ordering cursors cover.
func TestReformationSeeds(t *testing.T) {
	for _, seed := range []int64{488, 1218, 1273, 1566} {
		r := Chaos(DefaultChaos(5, seed))
		if r.Failed != "" {
			t.Fatalf("seed %d: %s", seed, r.Failed)
		}
		if res := check.All(r.Cluster); !res.OK() {
			t.Fatalf("seed %d: invariants: %s", seed, res)
		}
		if !agreedOn(r.Cluster, allIDs(5)) {
			t.Fatalf("seed %d: full group not re-formed", seed)
		}
	}
}
