package timewheel

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"timewheel/internal/obs"
)

// The acceptance criteria: /metrics serves valid Prometheus text with
// the protocol's key instrument families, /healthz tracks guard and
// membership state, /debug/events streams the trace ring.
func TestObsEndpoints(t *testing.T) {
	// Ring recording normally starts when the first ObsHandler is
	// created; enable it up front so the formation history (view
	// installs, state changes) is in the ring when we scrape it.
	defer tracer.EnableRing()()

	nodes, _, stop := startCluster(t, 3)
	defer stop()

	srv, err := nodes[0].ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Traffic so latency histograms and counters are non-trivial.
	for i := 0; i < 5; i++ {
		if err := nodes[0].Propose([]byte("x"), TotalOrder, Strong); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	// The acceptance-critical families.
	for _, want := range []string{
		"timewheel_engine_queue_depth",
		"timewheel_fsm_transitions_total",
		"timewheel_view_install_latency_seconds_bucket",
		"timewheel_decision_latency_seconds_bucket",
		`timewheel_peer_delay_seconds_bucket{peer="1"`,
		`timewheel_peer_delay_seconds_bucket{peer="2"`,
		"timewheel_guard_trips_total",
		"timewheel_handler_latency_seconds_count",
		"timewheel_member_view_changes_total",
		"timewheel_transport_sends_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Prometheus text format sanity: TYPE lines, cumulative +Inf buckets.
	if !strings.Contains(body, "# TYPE timewheel_peer_delay_seconds histogram") {
		t.Error("missing histogram TYPE line")
	}
	if !strings.Contains(body, `le="+Inf"`) {
		t.Error("missing +Inf bucket")
	}
	// The node has handled events, so the handler histogram is live.
	if hs, ok := nodes[0].HistogramStat("timewheel_handler_latency_seconds"); !ok || hs.Count == 0 {
		t.Errorf("handler latency histogram empty: %+v ok=%v", hs, ok)
	}
	// Peer delay (the timeliness-graph edge weights) observed for both peers.
	if hs, ok := nodes[0].HistogramStat("timewheel_peer_delay_seconds"); !ok || hs.Count == 0 {
		t.Errorf("peer delay histogram empty: %+v ok=%v", hs, ok)
	}

	code, body = get("/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json status %d", code)
	}
	var jm []map[string]any
	if err := json.Unmarshal([]byte(body), &jm); err != nil {
		t.Fatalf("metrics JSON not parseable: %v", err)
	}
	if len(jm) == 0 {
		t.Fatal("metrics JSON empty")
	}

	// Healthy formed member: 200. Poll briefly — under heavy load (the
	// race detector) a transient wrong suspicion can catch the node
	// mid-rejoin at the moment of a single-shot scrape.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = get("/healthz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz = %d (%s), want 200", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || !h.Healthy || !h.InView {
		t.Fatalf("healthz body %s (err %v)", body, err)
	}

	// Trace ring records protocol history (view installs at minimum).
	code, body = get("/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events status %d", code)
	}
	var evs struct {
		Next   uint64       `json:"next"`
		Events []TraceEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("events JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range evs.Events {
		seen[ev.Type] = true
	}
	if !seen["view-install"] || !seen["state-change"] {
		t.Errorf("trace ring missing protocol events; saw %v", seen)
	}

	// expvar is wired.
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"timewheel"`) {
		t.Errorf("/debug/vars = %d, timewheel key present=%v",
			code, strings.Contains(body, `"timewheel"`))
	}
}

// A node that has not joined (no view installed) must report unhealthy.
func TestHealthzUnhealthyBeforeJoin(t *testing.T) {
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	n, err := NewNode(Config{ID: 0, ClusterSize: 3, Transport: hub.Transport(0), Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	srv, err := n.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-join /healthz = %d, want 503", resp.StatusCode)
	}
}

// Health must reflect a tripped guard, and must stay readable while the
// event loop is stalled — the condition it exists to observe.
func TestHealthzGuardTripped(t *testing.T) {
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	n, err := NewNode(Config{
		ID: 0, ClusterSize: 1, Transport: hub.Transport(0), Params: fastParams(),
		Guard: GuardConfig{
			Enabled:       true,
			HandlerBudget: time.Millisecond,
			TripCount:     1,
			Enforce:       false, // observe-only: the trip latches
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := n.CurrentView(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("single-node group never formed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// No pre-stall "healthy" assertion: with a 1ms budget and TripCount 1
	// the hair-trigger guard can legitimately trip on ordinary scheduling
	// noise before the injected stall. The property under test is only
	// trip -> unhealthy, which the wait below covers either way.

	n.InjectStall(50 * time.Millisecond) // blows the 1ms budget, trips at 1 violation
	deadline = time.Now().Add(5 * time.Second)
	for {
		if h := n.Health(); h.GuardTripped && !h.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("guard trip never reflected in health: %+v", n.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v, ok := n.CounterValue("timewheel_guard_trips_total"); !ok || v == 0 {
		t.Errorf("guard trip counter = %d ok=%v", v, ok)
	}
}

// Observe delivers the same protocol events to an embedder-provided
// sink, and cancel detaches it.
func TestObservePublicHook(t *testing.T) {
	var mu sync.Mutex
	byType := map[string]int{}
	cancel := Observe(func(ev TraceEvent) {
		mu.Lock()
		byType[ev.Type]++
		mu.Unlock()
	})
	defer cancel()

	nodes, _, stop := startCluster(t, 3)
	defer stop()
	if err := nodes[0].Propose([]byte("x"), TotalOrder, Strong); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := byType["view-install"] > 0 && byType["state-change"] > 0 && byType["decider-start"] > 0
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("observe sink missing events: %v", byType)
		}
		time.Sleep(2 * time.Millisecond)
	}

	cancel()
	mu.Lock()
	before := byType["state-change"]
	mu.Unlock()
	// New cluster activity after cancel must not reach the sink.
	nodes[1].Propose([]byte("y"), TotalOrder, Strong) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	after := byType["state-change"]
	mu.Unlock()
	if after != before {
		t.Errorf("cancelled sink still receiving (%d -> %d)", before, after)
	}
}

// /debug/events?follow=1 streams the trace ring as server-sent events:
// correct content type, monotone ids with next-cursor semantics, and
// live events arriving after the stream opened.
func TestObsEventsFollowSSE(t *testing.T) {
	defer tracer.EnableRing()()

	nodes, _, stop := startCluster(t, 3)
	defer stop()

	srv, err := nodes[0].ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req, err := http.NewRequest("GET", "http://"+srv.Addr()+"/debug/events?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Generate fresh protocol events while the stream is open.
	go func() {
		for i := 0; i < 5; i++ {
			nodes[0].Propose([]byte("sse"), TotalOrder, Strong) //nolint:errcheck
			time.Sleep(10 * time.Millisecond)
		}
	}()

	type sseEvent struct {
		id   uint64
		data TraceEvent
	}
	events := make(chan sseEvent, 64)
	readErr := make(chan error, 1)
	go func() {
		defer close(events)
		var cur sseEvent
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				v, err := strconv.ParseUint(line[4:], 10, 64)
				if err != nil {
					readErr <- err
					return
				}
				cur.id = v
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
					readErr <- err
					return
				}
			case line == "": // dispatch boundary
				if cur.id != 0 {
					events <- cur
					cur = sseEvent{}
				}
			}
		}
	}()

	var got []sseEvent
	deadline := time.After(10 * time.Second)
	for len(got) < 5 {
		select {
		case err := <-readErr:
			t.Fatalf("stream decode: %v", err)
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed after %d events", len(got))
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("timed out with %d events", len(got))
		}
	}
	var lastID uint64
	for _, ev := range got {
		if ev.id <= lastID {
			t.Fatalf("ids not monotone: %d after %d", ev.id, lastID)
		}
		// id is the next-poll cursor: one past the event's sequence.
		if ev.id != ev.data.Seq+1 {
			t.Fatalf("id %d does not follow seq %d", ev.id, ev.data.Seq)
		}
		lastID = ev.id
		if ev.data.Type == "" {
			t.Fatalf("event without a type: %+v", ev.data)
		}
	}

	// Resume: a one-shot poll from the last cursor returns only newer
	// events.
	resp2, err := http.Get("http://" + srv.Addr() + "/debug/events?since=" + strconv.FormatUint(lastID, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out struct {
		Next   uint64       `json:"next"`
		Events []TraceEvent `json:"events"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, ev := range out.Events {
		if ev.Seq < lastID {
			t.Fatalf("resume re-delivered seq %d (cursor %d)", ev.Seq, lastID)
		}
	}
}

// "Where did this proposal's time go": a decision sent early — to order
// a proposal, to publish an ack a Strong delivery waits on, or to release
// a time-ordered update — is counted in timewheel_decisions_early_total
// (next to the decisions-sent counter, in Metrics and on /metrics), and
// the decider-end trace event of that tenure says which: held,
// ordering-early, ack-only-early or release-early.
func TestEarlyDecisionsAreCountedAndTraced(t *testing.T) {
	var mu sync.Mutex
	var earlyEnds, heldEnds int
	cancel := Observe(func(ev TraceEvent) {
		if ev.Type == "decider-end" && ev.A == 1 {
			mu.Lock()
			switch ev.B {
			case obs.DeciderEarlyOrdering, obs.DeciderEarlyAckOnly, obs.DeciderEarlyRelease:
				earlyEnds++
			case obs.DeciderHeld:
				heldEnds++
			default:
				t.Errorf("decider-end payload B=%d", ev.B)
			}
			mu.Unlock()
		}
	})
	defer cancel()

	nodes, recs, stop := startCluster(t, 3)
	defer stop()
	// A process's first proposal carries a clock-seeded sequence and waits
	// for a held decision to jump the gap; the ones after it continue an
	// ordered sequence and are decided on at once.
	// A proposal can be lost to a view change on a noisy host (the test
	// parameters give a member 6 ms to be heard): keep proposing until
	// enough have been delivered.
	const deliveries = 6
	proposed := 0
	deadline := time.Now().Add(20 * time.Second)
	for recs[0].deliveryCount() < deliveries {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d proposals delivered", recs[0].deliveryCount(), proposed)
		}
		have := recs[0].deliveryCount()
		if nodes[0].Propose([]byte{byte('a' + proposed%26)}, TotalOrder, Strong) == nil {
			proposed++
		}
		for wait := time.Now().Add(300 * time.Millisecond); recs[0].deliveryCount() == have && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
	}
	var early, sent uint64
	for _, n := range nodes {
		m := n.Metrics()
		if m.DecisionsEarly > m.DecisionsSent {
			t.Fatalf("more early decisions than decisions: %+v", m)
		}
		early, sent = early+m.DecisionsEarly, sent+m.DecisionsSent
	}
	// One ordering decision per proposal plus at most need-1 ack-only
	// ones (need = 2 of 3 for Strong): early <= proposed × need.
	const need = 2
	if early == 0 || early > uint64(proposed)*need {
		t.Fatalf("%d early decisions (of %d sent) for %d proposals: want 1..%d", early, sent, proposed, proposed*need)
	}
	var scraped uint64
	for _, n := range nodes {
		n.refreshMirror(time.Second)
		v, ok := n.CounterValue("timewheel_decisions_early_total")
		if !ok {
			t.Fatal("timewheel_decisions_early_total is not a metric family")
		}
		scraped += v
	}
	if scraped < early {
		t.Fatalf("/metrics shows %d early decisions, Metrics() %d", scraped, early)
	}
	mu.Lock()
	defer mu.Unlock()
	if earlyEnds == 0 || heldEnds == 0 {
		t.Fatalf("decider-end events: %d early, %d held; want both kinds", earlyEnds, heldEnds)
	}
}
