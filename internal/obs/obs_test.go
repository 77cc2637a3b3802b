package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Histogram ----------------------------------------------------------------

// Values exactly at a bucket's upper bound must land in that bucket;
// one past it must land in the next; values beyond the last bound land
// in the +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	h := NewHistogram(bounds)

	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {10, 0},
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // +Inf
	}
	for _, c := range cases {
		if got := h.bucketIdx(c.v); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.v, got, c.want)
		}
	}

	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	wantCounts := []uint64{3, 2, 2, 2}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 9 {
		t.Errorf("Count = %d, want 9", s.Count)
	}
	var wantSum int64
	for _, c := range cases {
		wantSum += c.v
	}
	if s.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramDefaultBucketsCoverProtocolTimescales(t *testing.T) {
	h := NewHistogram(nil)
	// 1µs handler, 10ms one-way delay, 2s election: all must resolve to
	// finite buckets, in increasing order.
	i1 := h.bucketIdx(int64(time.Microsecond))
	i2 := h.bucketIdx(int64(10 * time.Millisecond))
	i3 := h.bucketIdx(int64(2 * time.Second))
	if !(i1 < i2 && i2 < i3 && i3 < len(LatencyBuckets)) {
		t.Fatalf("bucket ordering wrong: %d %d %d (n=%d)", i1, i2, i3, len(LatencyBuckets))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]int64{10, 100})
	b := NewHistogram([]int64{10, 100})
	a.Observe(5)
	a.Observe(50)
	b.Observe(50)
	b.Observe(5000)

	if !a.Merge(b) {
		t.Fatal("Merge of same-bounds histograms failed")
	}
	s := a.Snapshot()
	if got := []uint64{s.Counts[0], s.Counts[1], s.Counts[2]}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("merged counts = %v, want [1 2 1]", got)
	}
	if s.Count != 4 || s.Sum != 5+50+50+5000 {
		t.Errorf("merged count/sum = %d/%d", s.Count, s.Sum)
	}

	// Mismatched bounds must refuse and leave the target untouched.
	c := NewHistogram([]int64{1, 2, 3})
	if a.Merge(c) {
		t.Error("Merge accepted mismatched bounds")
	}
	if got := a.Snapshot().Count; got != 4 {
		t.Errorf("failed merge mutated target: count %d", got)
	}
}

func TestHistogramQuantileAndMax(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket 0
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // bucket 2
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %d, want 10", q)
	}
	if q := s.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %d, want 1000", q)
	}
	if m := s.Max(); m != 1000 {
		t.Errorf("Max = %d, want 1000", m)
	}

	if q := (HistogramSnapshot{Bounds: []int64{1}, Counts: []uint64{0, 0}}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	c.Store(7)
	g.Set(1)
	g.Add(2)
	h.Observe(5)
	tr.Emit(EvStateChange, 0, 1, 2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Enabled() {
		t.Error("nil instruments must read as zero")
	}
}

// --- Tracer -------------------------------------------------------------------

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(64)
	defer tr.EnableRing()()

	// Overfill the ring 3x: only the newest Cap() events survive.
	total := 3 * tr.Cap()
	for i := 0; i < total; i++ {
		tr.Emit(EvViewInstall, 1, int64(i), 0)
	}
	evs, next, truncated := tr.Since(0)
	if next != uint64(total) {
		t.Errorf("next cursor = %d, want %d", next, total)
	}
	if !truncated {
		t.Error("overfilled ring read from 0 not reported truncated")
	}
	if want := uint64(total - tr.Cap()); tr.Dropped() != want {
		t.Errorf("Dropped() = %d, want %d", tr.Dropped(), want)
	}
	if len(evs) != tr.Cap() {
		t.Fatalf("got %d events, want ring cap %d", len(evs), tr.Cap())
	}
	for i, ev := range evs {
		wantSeq := uint64(total - tr.Cap() + i)
		if ev.Seq != wantSeq || ev.A != int64(wantSeq) {
			t.Fatalf("event %d: seq=%d A=%d, want seq=%d", i, ev.Seq, ev.A, wantSeq)
		}
	}

	// Incremental poll from the cursor returns only new events.
	tr.Emit(EvGuardTrip, 1, 0, 0)
	evs, next2, truncated := tr.Since(next)
	if len(evs) != 1 || evs[0].Type != EvGuardTrip || next2 != next+1 {
		t.Fatalf("incremental poll: %d events, next %d", len(evs), next2)
	}
	if truncated {
		t.Error("incremental poll from a live cursor reported truncated")
	}
}

// Concurrent emitters overwriting the ring while readers poll: every
// event a reader observes must be internally consistent (payload
// matches its sequence number), and torn slots must be skipped, not
// surfaced. Run under -race this also proves the seqlock is data-race
// free.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	defer tr.EnableRing()()

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// A carries the writer ID so readers can cross-check.
				tr.Emit(EvStateChange, int32(w), int64(w), int64(i))
			}
		}(w)
	}

	var rdWg sync.WaitGroup
	rdWg.Add(1)
	go func() {
		defer rdWg.Done()
		var cursor uint64
		for {
			evs, next, _ := tr.Since(cursor)
			for _, ev := range evs {
				if ev.Type != EvStateChange {
					t.Errorf("torn event surfaced: type %v", ev.Type)
					return
				}
				if ev.A != int64(ev.Node) || ev.B < 0 || ev.B >= perWriter {
					t.Errorf("inconsistent payload: node=%d A=%d B=%d", ev.Node, ev.A, ev.B)
					return
				}
			}
			cursor = next
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(stop)
	rdWg.Wait()

	if got := tr.seq.Load(); got != writers*perWriter {
		t.Errorf("sequence = %d, want %d (no lost claims)", got, writers*perWriter)
	}
}

func TestTracerAttachDetach(t *testing.T) {
	tr := NewTracer(64)

	if tr.Enabled() {
		t.Fatal("fresh tracer must be disabled")
	}
	// Disabled emit is invisible: no slot claimed.
	tr.Emit(EvGuardTrip, 0, 0, 0)
	if tr.seq.Load() != 0 {
		t.Fatal("disabled emit claimed a slot")
	}

	var mu sync.Mutex
	var got []Event
	detach := tr.Attach(func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	var n2 int
	detach2 := tr.Attach(func(Event) { n2++ })

	tr.Emit(EvElectionEnd, 3, 1234, 0)
	mu.Lock()
	if len(got) != 1 || got[0].Type != EvElectionEnd || got[0].Node != 3 || got[0].A != 1234 {
		t.Fatalf("sink saw %+v", got)
	}
	mu.Unlock()
	if n2 != 1 {
		t.Fatalf("second sink saw %d events", n2)
	}

	detach()
	detach() // double-detach is a no-op
	tr.Emit(EvElectionEnd, 3, 99, 0)
	mu.Lock()
	if len(got) != 1 {
		t.Error("detached sink still called")
	}
	mu.Unlock()
	if n2 != 2 {
		t.Errorf("remaining sink missed an event: saw %d", n2)
	}
	detach2()
	if tr.Enabled() {
		t.Error("tracer still enabled after all detaches")
	}
}

// The acceptance-critical guard: with no subscriber, Emit must not
// allocate.
func TestEmitZeroAllocWhenDisabled(t *testing.T) {
	tr := NewTracer(256)
	if a := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvStateChange, 1, 2, 3)
	}); a != 0 {
		t.Errorf("disabled Emit allocates %.1f per run, want 0", a)
	}
}

// Ring-enabled (but sink-less) emit — the /debug/events consumption
// model — must also be alloc-free.
func TestEmitZeroAllocWhenRingEnabled(t *testing.T) {
	tr := NewTracer(256)
	defer tr.EnableRing()()
	if a := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvStateChange, 1, 2, 3)
	}); a != 0 {
		t.Errorf("ring-enabled Emit allocates %.1f per run, want 0", a)
	}
}

// Histograms and counters sit on the same hot paths as Emit and must
// not allocate either.
func TestInstrumentsZeroAlloc(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	var c Counter
	v := int64(0)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Histogram.Observe", func() { v += 997; h.Observe(v) }},
		{"Counter.Inc", func() { c.Inc() }},
	} {
		if a := testing.AllocsPerRun(1000, tc.fn); a != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, a)
		}
	}
}

// --- Registry -----------------------------------------------------------------

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("tw_test_total", "test counter", nil).Add(3)
	r.Counter("tw_peer_sends_total", "per-peer", L("peer", "1")).Inc()
	r.Counter("tw_peer_sends_total", "per-peer", L("peer", "2")).Add(2)
	r.Gauge("tw_depth", "queue depth", nil).Set(7)
	h := r.Histogram("tw_lat_seconds", "latency", []int64{1_000, 1_000_000}, Seconds, nil)
	h.Observe(500)       // ≤1µs
	h.Observe(2_000_000) // +Inf

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE tw_test_total counter",
		"tw_test_total 3",
		`tw_peer_sends_total{peer="1"} 1`,
		`tw_peer_sends_total{peer="2"} 2`,
		"# TYPE tw_depth gauge",
		"tw_depth 7",
		"# TYPE tw_lat_seconds histogram",
		`tw_lat_seconds_bucket{le="0.000001"} 1`,
		`tw_lat_seconds_bucket{le="0.001"} 1`,
		`tw_lat_seconds_bucket{le="+Inf"} 2`,
		"tw_lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and le-ordered.
	if strings.Index(out, `le="0.000001"`) > strings.Index(out, `le="+Inf"`) {
		t.Error("bucket order wrong")
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("tw_x_total", "x", L("k", "v"))
	b := r.Counter("tw_x_total", "x", L("k", "v"))
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("aliased counters disagree")
	}

	h1 := r.Histogram("tw_h", "h", []int64{1, 2}, Raw, nil)
	h2 := r.Histogram("tw_h", "h", []int64{1, 2}, Raw, nil)
	if h1 != h2 {
		t.Error("same-name histograms must alias")
	}
}

func TestRegistryCounterValueSumsSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("tw_s_total", "", L("peer", "1")).Add(2)
	r.Counter("tw_s_total", "", L("peer", "2")).Add(5)
	v, ok := r.CounterValue("tw_s_total")
	if !ok || v != 7 {
		t.Errorf("CounterValue = %d,%v want 7,true", v, ok)
	}
	if _, ok := r.CounterValue("tw_missing"); ok {
		t.Error("missing family reported ok")
	}
}

func TestRegistryHistogramSnapshotMergesSeries(t *testing.T) {
	r := NewRegistry()
	r.Histogram("tw_m", "", []int64{10, 100}, Raw, L("peer", "1")).Observe(5)
	r.Histogram("tw_m", "", []int64{10, 100}, Raw, L("peer", "2")).Observe(50)
	s, ok := r.HistogramSnapshot("tw_m")
	if !ok || s.Count != 2 || s.Counts[0] != 1 || s.Counts[1] != 1 {
		t.Errorf("merged snapshot = %+v ok=%v", s, ok)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("tw_j_total", "j", nil).Add(4)
	r.Histogram("tw_j_lat", "lat", []int64{1_000}, Seconds, nil).Observe(500)
	r.GaugeFunc("tw_j_fn", "fn", nil, func() int64 { return 42 })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []JSONMetric
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("JSON output not parseable: %v\n%s", err, buf.String())
	}
	byName := map[string]JSONMetric{}
	for _, m := range out {
		byName[m.Name] = m
	}
	if m := byName["tw_j_total"]; m.Type != "counter" || m.Value == nil || *m.Value != 4 {
		t.Errorf("tw_j_total = %+v", m)
	}
	if m := byName["tw_j_fn"]; m.Value == nil || *m.Value != 42 {
		t.Errorf("tw_j_fn = %+v", m)
	}
	if m := byName["tw_j_lat"]; m.Count == nil || *m.Count != 1 {
		t.Errorf("tw_j_lat = %+v", m)
	}
}

// Lazy series registration (the FSM transition counters materialise on
// first use, from the event goroutine) must not race with a concurrent
// scrape iterating the same family. Run under -race.
func TestRegistryConcurrentRegisterAndRender(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Counter("tw_conc_total", "c", L("i", strconv.Itoa(i))).Inc()
			r.Histogram("tw_conc_lat", "h", nil, Seconds, L("i", strconv.Itoa(i))).Observe(int64(i))
		}
	}()
	for {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// --- Benchmarks ---------------------------------------------------------------

// BenchmarkEmit is the acceptance benchmark: the no-subscriber emit
// path. Must report 0 B/op.
func BenchmarkEmit(b *testing.B) {
	tr := NewTracer(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(EvStateChange, 1, 2, 3)
	}
}

func BenchmarkEmitRingEnabled(b *testing.B) {
	tr := NewTracer(8192)
	defer tr.EnableRing()()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(EvStateChange, 1, 2, 3)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 997)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
