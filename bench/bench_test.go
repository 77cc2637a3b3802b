package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		ok    bool
	}{
		{99, "", false}, // p90 of 99 samples has 9.9 beyond it
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
	} {
		label, _, ok := tailRule(tc.n)
		if label != tc.label || ok != tc.ok {
			t.Errorf("tailRule(%d) = %q, %v; want %q, %v", tc.n, label, ok, tc.label, tc.ok)
		}
	}
	s := summarize(make([]float64, 1000))
	if s.N != 1000 || s.TailLabel != "p99" {
		t.Errorf("summarize: %+v", s)
	}
}

// syntheticRun is a run whose book the test fills in by hand.
func syntheticRun(capacity int) *run {
	r := &run{book: newBook(capacity), c: &cluster{release: func() {}}, mix: []class{totalStrong}}
	r.c.book = r.book
	return r
}

// A stalled Propose delays the proposals queued behind it; because they
// are timed from when they were due, the stall shows in their latency.
func TestLatencyIsTimedFromDue(t *testing.T) {
	r := syntheticRun(8)
	ms := int64(time.Millisecond)
	r.t0, r.t1 = 0, 100*ms
	for i, row := range []struct{ due, entered, done int64 }{
		{0 * ms, 0 * ms, 60 * ms},      // Propose stalls for 50 ms
		{1 * ms, 50 * ms, 61 * ms},     // due on schedule, sent 49 ms late
		{2 * ms, 50 * ms, 62 * ms},     // likewise
		{200 * ms, 200 * ms, 201 * ms}, // outside the window
	} {
		idx, _, ok := r.begin(row.due)
		if !ok || idx != uint64(i) {
			t.Fatal("book full")
		}
		r.book.entered[idx], r.book.returned[idx] = row.entered, row.entered
		r.book.complete(idx, row.done)
	}
	o := judge(r)
	if o.attempted != 3 || o.failed() != 0 {
		t.Fatalf("attempted %d failed %d, want 3 and 0", o.attempted, o.failed())
	}
	for i, got := range o.all {
		if got != 60 {
			t.Errorf("proposal %d: latency %v ms, want 60 (from due, not from send)", i, got)
		}
	}
}

func TestFailuresAreCounted(t *testing.T) {
	r := syntheticRun(8)
	ms := int64(time.Millisecond)
	r.t0, r.t1 = 0, 100*ms
	r.begin(1 * ms)
	r.book.complete(0, 5*ms)
	r.begin(2 * ms) // accepted, never delivered
	r.begin(3 * ms)
	r.book.state[2].Store(stRefused)
	r.begin(4 * ms)
	r.book.complete(3, 4*ms+int64(deadline)+1) // delivered too late
	o := judge(r)
	if o.attempted != 4 || o.lost != 1 || o.refused != 1 || o.late != 1 || o.delivered() != 1 {
		t.Errorf("outcome %+v", o)
	}
	if len(o.all) != 1 {
		t.Errorf("a failed proposal must have no latency sample: %v", o.all)
	}
}

func TestOrphansAreSetAside(t *testing.T) {
	r := syntheticRun(8)
	ms := int64(time.Millisecond)
	r.t0, r.t1 = 0, 1000*ms
	r.cycles = []cycle{{victim: 2, crashStart: 50 * ms}}
	for i, node := range []uint8{2, 2, 1} {
		r.begin(40 * ms)
		r.book.node[i], r.book.entered[i] = node, 40*ms
	}
	r.book.complete(0, 45*ms) // delivered at the victim before the crash: counted
	// proposal 1 was in flight at the victim: orphaned
	// proposal 2 was in flight at a survivor and never delivered: lost
	o := judge(r)
	if o.attempted != 2 || o.orphaned != 1 || o.lost != 1 {
		t.Errorf("outcome %+v", o)
	}
}

func TestWindowSlotReleasedOnceOnTimeout(t *testing.T) {
	r := syntheticRun(8)
	released := 0
	r.c.release = func() { released++ }
	now := int64(10 * time.Second)
	r.begin(now - int64(slotTimeout) - 1) // lost long ago
	r.begin(now - int64(slotTimeout) - 1)
	r.book.complete(1, now) // came back in time
	r.begin(now - 1)        // young

	if low := r.sweepOnce(0, now); low != 2 {
		t.Errorf("low-water mark %d, want 2 (the young pending proposal)", low)
	}
	if released != 1 || r.book.state[0].Load() != stTimedOut {
		t.Fatalf("released %d, state %d", released, r.book.state[0].Load())
	}
	// A straggling delivery of the timed-out proposal must not hand the
	// slot back a second time.
	if r.book.complete(0, now+1) {
		t.Error("complete succeeded after the timeout")
	}
	r.sweepOnce(0, now)
	if released != 1 {
		t.Errorf("slot released %d times", released)
	}
	r.t0, r.t1 = 0, now+1
	o := judge(r)
	if o.lost != 2 { // the timed-out one and the young one still pending
		t.Errorf("lost %d, want 2", o.lost)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 90, End: 120},  // clipped to 100..120
		{Start: 110, End: 130}, // overlaps the first: adds 120..130
		{Start: 150, End: 160},
		{Start: 190, End: 250}, // clipped to 190..200
		{Start: 300, End: 400}, // outside
	}
	if got := selfTime(parent, children); got != 100-30-10-10 {
		t.Errorf("selfTime = %v, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	newRand := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	pool := newPayloadPool(newRand(7), 64)
	b := pool.make(12345)
	if idx, ok := parsePayload(b); !ok || idx != 12345 || len(b) != 64 {
		t.Fatalf("round trip: idx %d ok %v len %d", idx, ok, len(b))
	}
	b[40] ^= 1
	if _, ok := parsePayload(b); ok {
		t.Error("a flipped bit passed the checksum")
	}
	if a, b := newPayloadPool(newRand(7), 64).make(1), newPayloadPool(newRand(8), 64).make(1); string(a) == string(b) {
		t.Error("payload bytes do not depend on the seed")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the harness's tables")

// runSeconds is the window the driver measures: with 92 runs and two
// builds to fit into 3420 s, a run may take about 35 s in all.
const runSeconds = 20

// benchmarkJSON is /BENCHMARK.json as the harness's own tables define it.
func benchmarkJSON(t *testing.T) []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", sp.name, len(sp.why))
		}
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, metric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, metric{m.name, m.unit, m.better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestBenchmarkJSON keeps /BENCHMARK.json in step with the workloads and
// metrics the harness reports; `go test -C bench -run BenchmarkJSON
// -update` rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the harness's tables; run with -update. Want:\n%s", path, want)
	}
}

// smokeConfig is a workload's shape squeezed into about a second on the
// memory hub.
func smokeConfig(sp spec) runConfig {
	sp.udp, sp.scale = false, 1
	cfg := defaultConfig(sp, 1, time.Second, true)
	cfg.setups, cfg.warmup, cfg.drain = 1, 100*time.Millisecond, 400*time.Millisecond
	cfg.crash = crashPlan{every: 600 * time.Millisecond, jitter: 50 * time.Millisecond, down: 150 * time.Millisecond, tail: 500 * time.Millisecond}
	return cfg
}

func TestSmokeEveryWorkloadShape(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			out := t.TempDir()
			t.Setenv("TMPDIR", t.TempDir())
			d, err := runChild(smokeConfig(sp), out)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Correct {
				t.Fatalf("oracle: %v", d.Violations)
			}
			if d.Attempted == 0 || d.Attempted == d.Failed {
				t.Fatalf("attempted %d, failed %d", d.Attempted, d.Failed)
			}
			if sp.crash && d.Timings["view_install_ms"].N == 0 {
				t.Error("no crash cycle completed")
			}
			if sp.durable && d.Metrics["durable.recovered_share"] != 1 {
				t.Errorf("durable.recovered_share = %v", d.Metrics["durable.recovered_share"])
			}
			for _, def := range perLayerMetrics {
				if _, ok := d.Metrics[def.name]; !ok {
					t.Errorf("per-layer metric %s missing", def.name)
				}
			}
			// The per-layer table must be recomputable from the span file.
			tf, err := readTrace(d.Spans)
			if err != nil {
				t.Fatal(err)
			}
			again := layerTable(tf)
			for name, v := range d.Metrics {
				if again[name] != v {
					t.Errorf("%s: %v from the run, %v from the span file", name, v, again[name])
				}
			}
			commits := 0
			for _, s := range tf.Spans {
				if s.Name == "commit" {
					commits++
				}
			}
			if commits == 0 {
				t.Error("no commit spans")
			}
		})
	}
}
