package timewheel

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startBlackboxCluster boots a 3-node in-memory cluster whose node 0
// has the flight recorder armed at dir.
func startBlackboxCluster(t *testing.T, dir string) ([]*Node, func()) {
	t.Helper()
	hub := NewMemoryHub(HubConfig{MaxDelay: 500 * time.Microsecond, Seed: 7})
	nodes := make([]*Node, 3)
	for i := range nodes {
		cfg := Config{
			ID: i, ClusterSize: 3,
			Transport: hub.Transport(i),
			Params:    fastParams(),
		}
		if i == 0 {
			cfg.BlackboxDir = dir
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, nd := range nodes {
		nd.Start()
	}
	stop := func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		hub.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, nd := range nodes {
			if v, ok := nd.CurrentView(); !ok || len(v.Members) != 3 {
				all = false
				break
			}
		}
		if all {
			return nodes, stop
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatal("cluster never formed a full view")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBlackboxDump(t *testing.T) {
	dir := t.TempDir()
	nodes, stop := startBlackboxCluster(t, dir)
	defer stop()

	if err := nodes[0].Propose([]byte("x"), TotalOrder, Strong); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	path, err := nodes[0].DumpBlackbox("test")
	if err != nil {
		t.Fatalf("DumpBlackbox: %v", err)
	}
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), blackboxPrefix) {
		t.Fatalf("bundle path %q not a %s* entry of %q", path, blackboxPrefix, dir)
	}
	for _, f := range []string{"meta.json", "events.json", "metrics.prom", "goroutine.txt", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(path, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}

	var meta blackboxMeta
	b, err := os.ReadFile(filepath.Join(path, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Node != 0 || meta.Reason != "test" || !meta.Health.InView {
		t.Fatalf("meta = %+v", meta)
	}

	// The events dump must contain the causally-tagged wire hops the
	// armed ring recorded — a cluster cannot form without decisions.
	var evd blackboxEvents
	b, err = os.ReadFile(filepath.Join(path, "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &evd); err != nil {
		t.Fatalf("events.json: %v", err)
	}
	var sends, recvs int
	for _, ev := range evd.Events {
		switch ev.Type {
		case "wire-send":
			sends++
		case "wire-recv":
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("events.json has %d wire-send and %d wire-recv events, want both > 0", sends, recvs)
	}

	// No temp droppings.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("staging residue %s left behind", e.Name())
		}
	}
}

func TestBlackboxRetentionAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	nodes, stop := startBlackboxCluster(t, dir)
	defer stop()

	for i := 0; i < blackboxKeep+3; i++ {
		if _, err := nodes[0].DumpBlackbox("churn"); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != blackboxKeep {
		t.Fatalf("retained %d bundles, want %d", len(ents), blackboxKeep)
	}

	// Automatic triggers are rate-limited: a burst yields one dump.
	before := len(ents)
	for i := 0; i < 5; i++ {
		nodes[0].triggerBlackbox("guard-trip")
	}
	deadline := time.Now().Add(2 * time.Second)
	var after int
	for {
		ents, _ := os.ReadDir(dir)
		after = 0
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), blackboxPrefix) {
				after++
			}
		}
		// The retention cap makes the count stay at blackboxKeep; the
		// newest bundle's reason tells us exactly one trigger fired.
		var trips int
		for _, e := range ents {
			if strings.Contains(e.Name(), "guard-trip") {
				trips++
			}
		}
		if trips == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("guard-trip bundles = %d (dir has %d, had %d), want exactly 1", trips, after, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Give any (incorrectly) queued extra dumps a moment to appear.
	time.Sleep(100 * time.Millisecond)
	trips := 0
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), "guard-trip") {
			trips++
		}
	}
	if trips != 1 {
		t.Fatalf("rate limit let %d guard-trip dumps through", trips)
	}
}

func TestBlackboxDisabledAndHTTPTrigger(t *testing.T) {
	dir := t.TempDir()
	nodes, stop := startBlackboxCluster(t, dir)
	defer stop()

	// Node 1 has no blackbox dir: explicit dumps error, triggers no-op.
	if _, err := nodes[1].DumpBlackbox("x"); err == nil {
		t.Fatal("DumpBlackbox succeeded without a configured directory")
	}
	nodes[1].triggerBlackbox("guard-trip") // must not panic or write

	srv, err := nodes[0].ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/debug/blackbox")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /debug/blackbox = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(base+"/debug/blackbox", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/blackbox = %d (%v)", resp.StatusCode, err)
	}
	if _, err := os.Stat(filepath.Join(out["bundle"], "meta.json")); err != nil {
		t.Fatalf("triggered bundle %q: %v", out["bundle"], err)
	}

	// The auditor rides /healthz: a clean cluster reports zero.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Healthy || h.InvariantViolations != 0 {
		t.Fatalf("healthz = %+v, want healthy with zero violations", h)
	}
}

// Stop waits for an automatic dump in flight: right after a guard trip
// the bundle is complete and nothing is left half written, so a caller
// may remove the directory as soon as Stop returns.
func TestStopWaitsForAutomaticDump(t *testing.T) {
	dir := t.TempDir()
	nodes, stop := startBlackboxCluster(t, dir)
	defer stop()
	nodes[0].triggerBlackbox("guard-trip")
	nodes[0].Stop()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || !strings.HasPrefix(names[0], blackboxPrefix) || !strings.HasSuffix(names[0], "-guard-trip") {
		t.Fatalf("after Stop the blackbox directory holds %v, want one complete guard-trip bundle", names)
	}
	for _, f := range []string{"meta.json", "events.json", "metrics.prom"} {
		if _, err := os.Stat(filepath.Join(dir, names[0], f)); err != nil {
			t.Fatalf("bundle incomplete: %v", err)
		}
	}
	// A stopped node starts no dump.
	nodes[0].bboxLast.Store(0)
	nodes[0].triggerBlackbox("guard-trip")
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("a stopped node started a dump: %d entries", len(ents))
	}
}
