package scenario

import (
	"fmt"
	"slices"
	"testing"

	"timewheel/internal/broadcast"
	"timewheel/internal/check"
	"timewheel/internal/model"
	"timewheel/internal/netsim"
	"timewheel/internal/node"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// sentDecision is one decision as it left its sender: its stamp and the
// next ordinal its oal carries.
type sentDecision struct {
	from model.ProcessID
	ts   model.Time
	next oal.Ordinal
}

// recordDecisions logs every decision the cluster's network carries,
// once per send.
func recordDecisions(c *node.Cluster) *[]sentDecision {
	var out []sentDecision
	seen := make(map[sentDecision]bool)
	c.Net.AddFilter(func(from, to model.ProcessID, m wire.Message) (netsim.Verdict, model.Duration) {
		if d, ok := m.(*wire.Decision); ok {
			rec := sentDecision{from: from, ts: d.SendTS, next: d.OAL.Next}
			if !seen[rec] {
				seen[rec] = true
				out = append(out, rec)
			}
		}
		return netsim.Pass, 0
	})
	return &out
}

// The ordering budget holds at every rate. Over failure-free runs from a
// trickle like hub3_paced's (1.6 proposals a slot) to past the ceiling
// (100 a slot against a budget of 64), no D/32 slot's decisions assign
// more than the budget — MaxOrdinalsPerDecision for teams of up to six —
// no D/128 cell carries two decisions that assign ordinals, and no one
// decision assigns more than the bound. Ordering decisions are held to a
// slot edge for a spent budget past the ceiling only
// (member.Stats.DecisionsSlotFull), and every proposal is delivered.
func TestOrderingBudgetPerSlot(t *testing.T) {
	const budget = broadcast.MaxOrdinalsPerDecision
	for _, tc := range []struct {
		name    string
		n       int
		perfect bool
		burst   int
		every   int // microseconds between bursts
		window  int // load, in units of D
		full    int // DecisionsSlotFull: 0 none, 1 some, -1 either
	}{
		{"paced", 3, true, 1, 390, 50, 0},
		{"paced-drifting-clocks", 5, false, 1, 390, 50, 0},
		{"busy", 5, true, 5, 156, 10, -1},
		{"saturated", 3, true, 25, 156, 5, 1},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				params := model.DefaultParams(tc.n)
				// Messages take a tenth of a cell, as on the memory hub, so
				// that the slot and not the delay bounds the ordering rate.
				c := node.NewCluster(node.Options{Seed: seed, Params: params, PerfectClocks: tc.perfect,
					Delay: netsim.UniformDelay(params.D/1280, params.D/640)})
				sent := recordDecisions(c)
				c.Start()
				if _, ok := runUntil(c, 10, func() bool { return agreedOn(c, allIDs(tc.n)) }); !ok {
					t.Fatal("initial group never formed")
				}
				sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
				// A process's first proposal carries a clock-seeded sequence,
				// a gap the held decisions jump a cycle later, releasing
				// whatever queued behind it at once; propose it first and
				// let the group settle.
				slotFull := func() (n uint64) {
					for id := 0; id < tc.n; id++ {
						n += c.Node(model.ProcessID(id)).Machine().Stats().DecisionsSlotFull
					}
					return n
				}
				for id := 0; id < tc.n; id++ {
					if !c.Node(model.ProcessID(id)).Propose([]byte("warm-up"), sem) {
						t.Fatalf("p%d refused its warm-up proposal", id)
					}
				}
				c.Run(cyclesDur(c, 4))
				held0 := slotFull()
				proposed := tc.n
				for end := c.Sim.Now().Add(model.Duration(tc.window) * params.D); c.Sim.Now() < end; {
					for i := 0; i < tc.burst; i++ {
						if c.Node(model.ProcessID(proposed%tc.n)).Propose([]byte(fmt.Sprintf("u%d", proposed)), sem) {
							proposed++
						}
					}
					c.Run(model.Duration(tc.every) * model.Microsecond)
				}
				c.Run(cyclesDur(c, 6))
				if res := check.All(c); !res.OK() {
					t.Fatalf("invariants: %v", res)
				}
				for id := 0; id < tc.n; id++ {
					if got := c.Node(model.ProcessID(id)).Broadcast().Stats().Delivered; got != uint64(proposed) {
						t.Fatalf("p%d delivered %d of %d proposals", id, got, proposed)
					}
				}
				held := slotFull() - held0
				if (tc.full == 0 && held != 0) || (tc.full == 1 && held == 0) {
					t.Fatalf("%d ordering decisions held for a spent slot", held)
				}

				decs := slices.Clone(*sent)
				slices.SortFunc(decs, func(a, b sentDecision) int { return int(a.ts - b.ts) })
				q := model.Time(params.D / 32)
				perSlot := make(map[model.Time]int)
				perCell := make(map[model.Time]sentDecision)
				prev, ordering := oal.Ordinal(1), 0
				for _, d := range decs {
					if d.next < prev {
						t.Fatalf("decision of p%d at %d carries next ordinal %d after %d", d.from, d.ts, d.next, prev)
					}
					k := int(d.next - prev)
					prev = d.next
					if k == 0 {
						continue
					}
					ordering++
					if k > budget {
						t.Fatalf("decision of p%d at %d ordered %d, bound %d", d.from, d.ts, k, budget)
					}
					slot := d.ts / q
					if perSlot[slot] += k; perSlot[slot] > budget {
						t.Fatalf("slot %d ordered %d, budget %d", slot, perSlot[slot], budget)
					}
					cell := slot*4 + d.ts%q*4/q
					if o, dup := perCell[cell]; dup {
						t.Fatalf("two ordering decisions in one cell: p%d at %d and p%d at %d", o.from, o.ts, d.from, d.ts)
					}
					perCell[cell] = d
				}
				t.Logf("%d proposals, %d decisions, %d ordering, %d held for a spent slot", proposed, len(decs), ordering, held)
			})
		}
	}
}
