package scenario

import (
	"fmt"
	"testing"

	"timewheel/internal/check"
	"timewheel/internal/model"
	"timewheel/internal/node"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// runDecisionLoad forms a group, drives a sustained proposal load sized
// to keep tens of entries in the unstable-oal window, and returns the
// decision bytes-on-wire accumulated during the loaded steady state
// plus the widest window observed. Identical seed and load on every
// call: only fullOALEvery distinguishes the runs.
func runDecisionLoad(t *testing.T, fullOALEvery int) (decBytes uint64, maxWindow int) {
	t.Helper()
	const n = 5
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	c := node.NewCluster(node.Options{
		Seed:          1,
		Params:        model.DefaultParams(n),
		PerfectClocks: true,
		FullOALEvery:  fullOALEvery,
	})
	c.Start()
	if _, ok := runUntil(c, 10, func() bool { return agreedOn(c, allIDs(n)) }); !ok {
		t.Fatal("initial group never formed")
	}
	// Warm the pipeline into its loaded steady state before measuring,
	// so formation and ramp-up (always-full decisions) don't dilute
	// either variant.
	seq := 0
	load := func(slots int) {
		for s := 0; s < slots; s++ {
			for i := 0; i < 7; i++ {
				payload := []byte(fmt.Sprintf("update-%04d-padding-to-realistic-size", seq))
				c.Node(model.ProcessID(seq%n)).Propose(payload, sem)
				seq++
			}
			c.Run(c.Params.SlotLen())
			if w := len(c.Node(0).Broadcast().CurrentView().Entries); w > maxWindow {
				maxWindow = w
			}
		}
	}
	load(10 * n)
	before := c.Net.Stats()
	load(40 * n)
	after := c.Net.Stats()
	decBytes = after.Bytes[wire.KindDecision] - before.Bytes[wire.KindDecision]

	// The optimisation must not cost correctness: drain the load and
	// require full delivery agreement and every protocol invariant.
	c.Run(cyclesDur(c, 6))
	if res := check.All(c); !res.OK() {
		t.Fatalf("fullOALEvery=%d: invariants violated: %v", fullOALEvery, res)
	}
	return decBytes, maxWindow
}

// TestDeltaDecisionBytes asserts the wire-v5 delta optimisation's core
// claim: under a sustained load that keeps the unstable window at ≥32
// entries, delta-encoded decisions carry at most half the decision
// bytes-on-wire of the always-full baseline.
func TestDeltaDecisionBytes(t *testing.T) {
	fullBytes, fullWindow := runDecisionLoad(t, -1)  // delta disabled
	deltaBytes, deltaWindow := runDecisionLoad(t, 0) // deltas on
	t.Logf("full-oal: %d decision bytes (window ≤%d); delta: %d decision bytes (window ≤%d)",
		fullBytes, fullWindow, deltaBytes, deltaWindow)
	if fullWindow < 32 || deltaWindow < 32 {
		t.Fatalf("load too light: unstable window peaked at %d/%d entries, want ≥32", fullWindow, deltaWindow)
	}
	if deltaBytes > fullBytes/2 {
		t.Fatalf("delta decisions shipped %d bytes, want ≤50%% of full-oal's %d", deltaBytes, fullBytes)
	}
}
