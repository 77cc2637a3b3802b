package broadcast

import (
	"fmt"
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// newDeltaTestBroadcast builds a bare broadcast layer for exercising
// the baseline ring directly.
func newDeltaTestBroadcast() *Broadcast {
	params := model.DefaultParams(3)
	b := New(1, params, Config{})
	b.SetGroup(model.NewGroup(1, []model.ProcessID{0, 1, 2}))
	return b
}

func TestDeltaWindowWidensOnRepairs(t *testing.T) {
	b := newDeltaTestBroadcast()
	if got := b.DeltaWindow(); got != minDeltaWindow {
		t.Fatalf("initial window = %d, want %d", got, minDeltaWindow)
	}
	// Every OALReq-driven repair widens the ring by one, up to the cap.
	for i := 0; i < maxDeltaWindow+3; i++ {
		b.ForceFullOAL()
	}
	if got := b.DeltaWindow(); got != maxDeltaWindow {
		t.Fatalf("window after repairs = %d, want clamp at %d", got, maxDeltaWindow)
	}
}

func TestDeltaWindowWidensOnLocalMiss(t *testing.T) {
	b := newDeltaTestBroadcast()
	// A delta keyed on a baseline we do not hold: the resolve fails,
	// counts a miss, and widens the window.
	nd := &wire.NoDecision{}
	nd.BaseTS = 500
	nd.View = oal.List{}
	if b.ResolveNoDecisionDelta(nd) {
		t.Fatal("resolve succeeded with no baseline held")
	}
	if got := b.DeltaWindow(); got != minDeltaWindow+1 {
		t.Fatalf("window after local miss = %d, want %d", got, minDeltaWindow+1)
	}
	if b.Stats().DeltaMisses != 1 {
		t.Fatalf("DeltaMisses = %d, want 1", b.Stats().DeltaMisses)
	}
}

func TestDeltaWindowShrinksAfterCleanStreakAndTrimsRing(t *testing.T) {
	b := newDeltaTestBroadcast()
	b.ForceFullOAL()
	b.ForceFullOAL()
	widened := b.DeltaWindow()
	if widened != minDeltaWindow+2 {
		t.Fatalf("window after two repairs = %d, want %d", widened, minDeltaWindow+2)
	}
	// Retain baselines with no further repairs: the ring fills to the
	// widened size, then one clean streak shrinks the window and the
	// next push trims the retained ring to match.
	ts := model.Time(1000)
	for i := 0; i < deltaShrinkAfter-1; i++ {
		b.pushBaseline(ts)
		ts += 10
	}
	if got := b.DeltaWindow(); got != widened {
		t.Fatalf("window shrank early: %d, want %d", got, widened)
	}
	if len(b.baseRing) > widened {
		t.Fatalf("ring grew past the window: %d > %d", len(b.baseRing), widened)
	}
	b.pushBaseline(ts) // the deltaShrinkAfter-th clean push
	if got := b.DeltaWindow(); got != widened-1 {
		t.Fatalf("window after clean streak = %d, want %d", got, widened-1)
	}
	if len(b.baseRing) != widened-1 {
		t.Fatalf("ring length after shrink = %d, want %d", len(b.baseRing), widened-1)
	}
	// The trim keeps the newest baselines.
	if got := b.newestBaseline().ts; got != ts {
		t.Fatalf("newest baseline ts = %d, want %d", got, ts)
	}
}

// A delta decision is built from change stamps, not by comparing lists:
// it must still be exactly oal.Diff of the full oal against the oal of
// the decision it names as its base, and a member that adopts it in
// place must end up holding the sender's full oal.
func TestDeltaDecisionEqualsDiffOfPristineLists(t *testing.T) {
	h := newHarness(t, 0, 1, 2)
	pristine := map[model.Time]*oal.List{} // every decision's full oal, by send timestamp
	deltas := 0
	for r := 0; r < 120; r++ {
		for k := 0; k <= r%3; k++ {
			h.now += 100
			from := model.ProcessID((r + k) % 3)
			h.fanout(h.members[from].Propose(h.now, []byte(fmt.Sprintf("u%d.%d", r, k)), sem(oal.Order(r%3), oal.Atomicity((r+k)%3))))
		}
		if r%17 == 16 {
			h.now = h.now.Add(h.params.CycleLen()) // let a stable prefix truncate
		}
		decider := h.members[model.ProcessID(r%3)]
		h.now = h.now.Add(h.params.D / 4)
		dec, _ := decider.BuildDecision(h.now, h.group, h.group.Members)
		full := decider.pristineList()
		pristine[dec.SendTS] = full
		if dec.BaseTS != 0 {
			deltas++
			base, ok := pristine[dec.BaseTS]
			if !ok {
				t.Fatalf("round %d: delta keyed on %d, which no decision was sent at", r, dec.BaseTS)
			}
			want, _ := oal.Diff(base, full)
			got := &oal.List{Entries: dec.OAL.Entries, Next: full.Next}
			if !got.Equal(&oal.List{Entries: want, Next: full.Next}) || dec.TruncBelow != oal.TruncationPoint(full) {
				t.Fatalf("round %d: delta %v (trunc %d)\nwant Diff   %v (trunc %d)", r, dec.OAL.Entries, dec.TruncBelow, want, oal.TruncationPoint(full))
			}
		}
		for id, m := range h.members {
			if id == dec.From {
				continue
			}
			msg, err := wire.Decode(wire.Encode(dec))
			if err != nil {
				t.Fatal(err)
			}
			if adopted, _ := m.AdoptDecision(h.now, msg.(*wire.Decision)); !adopted {
				t.Fatalf("round %d: p%d did not adopt", r, id)
			}
			if got := m.pristineList(); !got.Equal(full) {
				t.Fatalf("round %d: p%d holds %v\nthe decision's oal is %v", r, id, got, full)
			}
		}
	}
	if deltas < 60 {
		t.Fatalf("only %d of 120 decisions were deltas: the test did not exercise them", deltas)
	}
}

// loadedDeltas drives an n-member group at its ordering bound: before
// each decision every member proposes its share of the bound's bodies
// and everyone receives them, deciders rotate one early-decision slot
// (D/32) apart, and every member's baseline ring is widened to
// maxDeltaWindow. It returns the largest delta decision's encoded size
// and descriptor count.
func loadedDeltas(t *testing.T, n, rounds int) (maxBytes, maxEntries int) {
	t.Helper()
	params := model.DefaultParams(n)
	ids := make([]model.ProcessID, n)
	for i := range ids {
		ids[i] = model.ProcessID(i)
	}
	group := model.NewGroup(1, ids)
	members := make([]*Broadcast, n)
	for i := range members {
		members[i] = New(ids[i], params, Config{})
		members[i].SetGroup(group)
		for members[i].DeltaWindow() < maxDeltaWindow {
			members[i].noteBaselineRepair()
		}
	}
	bound := ordinalsPerDecision(n)
	now := model.Time(1_000_000)
	for r := 0; r < rounds; r++ {
		for k := 0; k < bound; k++ {
			now++
			from := members[k%n]
			p := from.Propose(now, []byte("payload"), sem(oal.TotalOrder, oal.StrongAtomicity))
			for _, m := range members {
				if m != from {
					m.OnProposal(now, p)
				}
			}
		}
		now = now.Add(params.D / 32)
		d := members[r%n]
		next := d.view.Next
		dec, _ := d.BuildDecision(now, group, group.Members)
		if got := int(dec.OAL.Next - next); got != bound {
			t.Fatalf("round %d: decision ordered %d, want %d", r, got, bound)
		}
		for _, m := range members {
			if m != d {
				if ok, _ := m.AdoptDecision(now, dec); !ok {
					t.Fatalf("round %d: p%d did not adopt p%d's decision", r, m.self, d.self)
				}
			}
		}
		if dec.BaseTS != 0 {
			maxBytes = max(maxBytes, len(wire.Encode(dec)))
			maxEntries = max(maxEntries, len(dec.OAL.Entries))
		}
	}
	return maxBytes, maxEntries
}

// A delta decision at the ordering bound, against the oldest baseline of
// the widest ring, fits one datagram for every team size up to
// oal.MaxProcesses: it carries the descriptors of the last
// maxDeltaWindow decisions plus the older ones whose acks or stability
// changed since (a descriptor collects them over the next n-1
// decisions), and the coalescer's bound leaves room for the envelope
// under the UDP transport's 64 KiB. The benchmark's groups of three and
// five order the full MaxOrdinalsPerDecision.
func TestWorstCaseDeltaFitsOneDatagram(t *testing.T) {
	for _, n := range []int{3, 5} {
		if got := ordinalsPerDecision(n); got != MaxOrdinalsPerDecision {
			t.Errorf("ordinalsPerDecision(%d) = %d, want %d", n, got, MaxOrdinalsPerDecision)
		}
	}
	for _, n := range []int{3, 5, 6, 7, 22, oal.MaxProcesses} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			bound := ordinalsPerDecision(n)
			want := (maxDeltaWindow + n - 1) * bound
			maxBytes, maxEntries := loadedDeltas(t, n, 2*(maxDeltaWindow+n))
			t.Logf("bound %d: largest delta %d descriptors, %d B (%.1f B each)", bound, maxEntries, maxBytes, float64(maxBytes)/float64(maxEntries))
			if maxEntries != want {
				t.Fatalf("largest delta holds %d descriptors, want the worst case (%d + %d - 1) × %d = %d", maxEntries, maxDeltaWindow, n, bound, want)
			}
			if maxEntries > deltaDescriptorBudget {
				t.Fatalf("largest delta holds %d descriptors, over the budget of %d", maxEntries, deltaDescriptorBudget)
			}
			if maxBytes > wire.MaxCoalescedSize {
				t.Fatalf("a delta decision encodes to %d B, over the %d B a datagram carries", maxBytes, wire.MaxCoalescedSize)
			}
		})
	}
}
