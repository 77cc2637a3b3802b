package timewheel

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"timewheel/internal/trace"
)

// The live half of the twtrace pipeline: a real (in-memory transport)
// cluster's /debug/events output must merge into a causally-clean
// timeline — every control-message receive matched to its send via the
// v7 causal context, zero ordering violations, deliveries present.
func TestDebugEventsMergeCausallyClean(t *testing.T) {
	defer tracer.EnableRing()()
	// The ring is process-wide and outlives tests: events of earlier
	// tests' clusters (same node IDs, overlapping ordinals) are not this
	// cluster's timeline.
	began := time.Now()

	nodes, recs, stop := startCluster(t, 3)
	defer stop()

	for i := 0; i < 3; i++ {
		if err := nodes[i].Propose([]byte{byte('a' + i)}, TotalOrder, Strong); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, r := range recs {
			if r.deliveryCount() < 3 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proposals never delivered everywhere")
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv, err := nodes[0].ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Truncated bool              `json:"truncated"`
		Dropped   uint64            `json:"dropped"`
		Events    []trace.EventJSON `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	// All in-process nodes share one ring, so this single endpoint
	// carries the whole cluster; Event.Node keeps emitters apart.
	own := doc.Events[:0]
	for _, ev := range doc.Events {
		if !ev.At.Before(began) {
			own = append(own, ev)
		}
	}
	hops := trace.HopsFromJSON(own)
	seen := map[int32]bool{}
	for _, h := range hops {
		seen[h.Node] = true
	}
	if len(seen) != 3 {
		t.Fatalf("hops cover nodes %v, want all 3", seen)
	}

	// Same-host clocks: any ε accepts, none is needed.
	tl := trace.MergeCluster([][]trace.Hop{hops}, int64(time.Millisecond), doc.Truncated || doc.Dropped > 0)
	if len(tl.Violations) != 0 {
		for _, v := range tl.Violations {
			t.Errorf("violation: %s", v.Text)
		}
		t.Fatalf("%d causal-ordering violations", len(tl.Violations))
	}
	if len(tl.Edges) == 0 {
		t.Fatal("no cross-node edges resolved from /debug/events")
	}
	var delivers int
	for _, h := range tl.Hops {
		if h.Dir == trace.HopDeliver {
			delivers++
		}
	}
	if delivers < 9 { // 3 proposals × 3 nodes
		t.Fatalf("delivers = %d, want >= 9", delivers)
	}
}
