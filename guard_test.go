package timewheel

import (
	"fmt"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimerLatenessBothEngines verifies the lateness accounting the
// guard builds on works under both event demultiplexers: a stall on the
// event goroutine makes the timers armed behind it dispatch late, and
// the guard counts the overrun and the late timers. Observe-only mode:
// nothing is suppressed, the node keeps running.
func TestTimerLatenessBothEngines(t *testing.T) {
	for _, eng := range []string{"loop", "threaded"} {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			node, err := NewNode(Config{
				ID: 0, ClusterSize: 1,
				Transport: NewMemoryHub(HubConfig{}).Transport(0),
				Params:    fastParams(),
				Engine:    eng,
				Guard: GuardConfig{
					Enabled:         true,
					HandlerBudget:   20 * time.Millisecond,
					TimerLateBudget: 20 * time.Millisecond,
					// Observe-only, and a trip threshold the stall will
					// cross — asserting the latch without self-exclusion.
					TripCount: 2, TripWindow: time.Second,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			node.Start()
			waitFor(t, 10*time.Second, "singleton formation", func() bool {
				_, ok := node.CurrentView()
				return ok
			})

			node.InjectStall(150 * time.Millisecond)
			// GuardStats must stay readable mid-stall (atomics, no
			// event-loop round trip).
			done := make(chan GuardStats, 1)
			go func() { done <- node.GuardStats() }()
			select {
			case <-done:
			case <-time.After(100 * time.Millisecond):
				t.Fatalf("GuardStats blocked during a stall")
			}

			waitFor(t, 10*time.Second, "overrun+late timers counted", func() bool {
				s := node.GuardStats()
				return s.Overruns >= 1 && s.LateTimers >= 1 && s.Tripped
			})
			if s := node.GuardStats(); s.SelfExclusions != 0 || s.SuppressedSends != 0 {
				t.Fatalf("observe-only guard acted: %+v", s)
			}
			// The singleton keeps running (its own slot timers still fire).
			waitFor(t, 10*time.Second, "still operating after stall", func() bool {
				_, ok := node.CurrentView()
				return ok
			})
		})
	}
}

// TestStallSelfExclusionAndWarmRejoin is the end-to-end enforcement
// path: a 3-node durable cluster, one member's event goroutine stalls
// far past every budget, its guard trips, it self-excludes (drops to
// join, goes silent) and rejoins warm — the group serving it a replay
// delta rather than a full state transfer, because its join advertised
// the coverage preserved across the self-exclusion.
func TestStallSelfExclusionAndWarmRejoin(t *testing.T) {
	const n = 3
	hub := NewMemoryHub(HubConfig{MaxDelay: 300 * time.Microsecond, Seed: 7})
	defer hub.Close()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		var err error
		nodes[i], err = NewNode(Config{
			ID: i, ClusterSize: n,
			Transport: hub.Transport(i),
			Params:    fastParams(),
			DataDir:   fmt.Sprintf("%s/node-%d", t.TempDir(), i),
			Fsync:     "none",
			Guard: GuardConfig{
				Enabled: true,
				// Loaded hosts (race detector, parallel packages) see
				// real >25ms scheduling lateness on healthy nodes; a
				// spurious trip on a second node costs the majority, the
				// group re-forms under a new lineage, and the victim's
				// old-lineage coverage can then only be served as a full
				// transfer. 100ms keeps healthy nodes quiet while the
				// 400ms stall still trips the victim deterministically.
				HandlerBudget:   100 * time.Millisecond,
				TimerLateBudget: 100 * time.Millisecond,
				TripCount:       2,
				TripWindow:      2 * time.Second,
				Enforce:         true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	fullView := func(nd *Node) bool {
		v, ok := nd.CurrentView()
		return ok && len(v.Members) == n
	}
	waitStable(t, nodes, 2)
	if !fullView(nodes[0]) {
		t.Fatal("cluster settled on a partial view")
	}

	// Put some deliveries on the books so the victim has real coverage
	// to advertise when it rejoins.
	for i := 0; i < 5; i++ {
		if err := nodes[0].Propose([]byte(fmt.Sprintf("u%d", i)), TotalOrder, Strong); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "pre-stall deliveries", func() bool {
		return nodes[2].Metrics().Delivered >= 5
	})

	victim := nodes[2]
	victim.InjectStall(400 * time.Millisecond)

	waitFor(t, 15*time.Second, "guard-triggered self-exclusion", func() bool {
		return victim.GuardStats().SelfExclusions >= 1
	})
	waitFor(t, 30*time.Second, "victim rejoined", func() bool {
		for _, nd := range nodes {
			if !fullView(nd) {
				return false
			}
		}
		return true
	})
	waitStable(t, nodes, 1)

	// Warm rejoin: some current member served a delta (not a full
	// snapshot) because the victim's join advertised its coverage.
	var deltas uint64
	for _, nd := range nodes {
		deltas += nd.Metrics().StateDeltas
	}
	if deltas == 0 {
		for i, nd := range nodes {
			t.Logf("node %d: %+v", i, nd.Metrics())
		}
		t.Fatalf("victim rejoined via full transfer; want a warm delta")
	}
	if ms := victim.Metrics(); ms.SelfExclusions == 0 {
		t.Fatalf("machine-level self-exclusion counter not bumped: %+v", ms)
	}
}
