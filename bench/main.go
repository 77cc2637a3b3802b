// Command bench is the repository's benchmark: a sustained-load harness
// that drives live timewheel groups through the public API, checks what
// they deliver, and reports end-to-end metrics (untraced pass) and a
// per-layer cost budget (traced pass). See README.md.
//
//	bash bench/run.sh --workload hub3_paced --seed 1 --seconds 20 --trace 0   # one run, one JSON line (the driver's form)
//	go run -C bench .                                                          # every workload, both passes, tables
//	go run -C bench . -agree                                                   # the full set twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// environment is stamped into every result.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Params     string `json:"params"`
}

// buildCommit is set by run.sh (-ldflags -X); `go run` stamps the commit
// through the build info instead.
var buildCommit = "unknown"

func stampEnvironment(sp spec) environment {
	p := sp.params()
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: buildCommit,
		Params: fmt.Sprintf("default Params x %d: D=%v delta=%v epsilon=%v sigma=%v slot=%v", sp.scale, p.D, p.Delta, p.Epsilon, p.Sigma, p.SlotLen()),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// detail is everything one run found out; the driver's result line is a
// projection of it.
type detail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`

	Correct    bool     `json:"correct"`
	Violations []string `json:"violations,omitempty"`
	Crashed    bool     `json:"crashed,omitempty"` // the child process died: set by the parent
	Stderr     []string `json:"stderr_tail,omitempty"`
	Views      []string `json:"views,omitempty"` // every view installation, in callback order

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
	Lost      int `json:"lost"`
	Late      int `json:"late"`
	Orphaned  int `json:"orphaned"`

	Metrics map[string]float64 `json:"metrics"`           // the pass's contract metrics
	Extra   map[string]float64 `json:"extra,omitempty"`   // reported, not gated
	Timings map[string]timing  `json:"timings,omitempty"` // median, tail percentile and sample count of every timed population
	Env     environment        `json:"env"`
	Spans   string             `json:"span_file,omitempty"`
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (d *detail) resultLine() resultLine {
	defs := endToEndMetrics
	if d.Traced {
		defs = perLayerMetrics
	}
	out := resultLine{Correct: d.Correct, Attempted: max(d.Attempted, 1), Failed: d.Failed, Metrics: make(map[string]metricValue)}
	for _, def := range defs {
		out.Metrics[def.name] = metricValue{Value: d.Metrics[def.name], Unit: def.unit}
	}
	return out
}

// runChild performs one workload run in this process. DataDirs and the
// span file live in a fresh temporary directory that is removed again;
// only with outDir set is the span file kept.
func runChild(cfg runConfig, outDir string) (*detail, error) {
	tmp, err := os.MkdirTemp("", "twload-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	sp, seed, seconds, traced := cfg.spec, cfg.seed, cfg.seconds, cfg.traced

	r := &run{cfg: cfg, clock: nowFunc(time.Now()), rng: rand.New(rand.NewSource(seed))}
	if err := r.execute(); err != nil {
		return nil, err
	}
	o := judge(r)
	d := &detail{
		Workload: sp.name, Seed: seed, Seconds: seconds.Seconds(), Traced: traced,
		Attempted: o.attempted, Failed: o.failed(), Refused: o.refused, Lost: o.lost, Late: o.late, Orphaned: o.orphaned,
		Timings: map[string]timing{"commit_ms": summarize(o.all), "setup_s": summarize(r.setupS)},
		Env:     stampEnvironment(sp),
	}
	for _, ev := range r.c.views {
		d.Views = append(d.Views, fmt.Sprintf("window%+.3fs node %d installed view %d %v", float64(ev.at-r.t0)/1e9, ev.node, ev.seq, ev.members))
	}
	d.Extra = map[string]float64{
		"failed_share": 0, "unforced_view_changes": float64(r.unforcedViewChanges()),
		// Suspicions the group masked or settled: how close the run came to
		// an exclusion that no fault was injected for.
		"wrong_suspicions": r.c.stats[sWrongSuspicions], "single_elections": r.c.stats[sSingleElections],
	}
	if o.attempted > 0 {
		d.Extra["failed_share"] = float64(o.failed()) / float64(o.attempted)
	}
	v := checkRun(r)
	d.Correct, d.Violations = v.count == 0, v.details
	if v.count > len(v.details) {
		d.Violations = append(d.Violations, fmt.Sprintf("... and %d more", v.count-len(v.details)))
	}
	for cl, name := range classNames {
		if len(o.latencyMs[cl]) > 0 {
			d.Timings["commit_ms."+name] = summarize(o.latencyMs[cl])
		}
	}
	d.Extra["cpu_us_per_delivered"] = cpuPerDelivered(r, o)
	if sp.crash {
		ct := timeCycles(r)
		for name, v := range map[string][]float64{"view_install": ct.viewInstall, "rejoin": ct.rejoin, "outage": ct.outage} {
			t := summarize(v)
			d.Timings[name+"_ms"], d.Extra[name+"_p50_ms"] = t, t.P50
		}
		d.Extra["crash_cycles"] = float64(len(r.cycles))
	}
	if !traced {
		d.Metrics = endToEnd(r, o)
		return d, nil
	}

	tf, err := buildTrace(r, o, filepath.Join(tmp, "probe"))
	if err != nil {
		return nil, err
	}
	spanFile := filepath.Join(tmp, sp.name+".spans.json")
	if outDir != "" {
		spanFile = filepath.Join(outDir, sp.name+".spans.json")
		d.Spans = spanFile
	}
	if err := writeTrace(spanFile, tf); err != nil {
		return nil, err
	}
	d.Metrics = layerTable(tf)
	d.Extra["broadcast.probe_depth"] = tf.Counts["broadcast.probe_depth"]
	d.Extra["spans"] = float64(len(tf.Spans))
	return d, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		workload     = flag.String("workload", "", "run only this workload (one pass; see -trace) and print the result line")
		seed         = flag.Int64("seed", 1, "workload seed: payload bytes, semantics mix order, crash jitter, victim order")
		seconds      = flag.Int("seconds", 30, "measured window in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		traceSeconds = flag.Int("trace-seconds", 10, "full set: measured window of the traced pass")
		agree        = flag.Bool("agree", false, "run the full set twice and compare every end-to-end metric against its bound")
		outDir       = flag.String("out", "", "keep span files and per-run results in this directory")
		recompute    = flag.String("recompute", "", "print the per-layer table recomputed from a span file and exit")
		child        = flag.Bool("child", false, "run the workload in this process, without the supervising parent")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *traceSeconds < 1 {
		fatalf("-seconds and -trace-seconds must be at least 1")
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	switch {
	case *recompute != "":
		tf, err := readTrace(*recompute)
		if err != nil {
			fatalf("%v", err)
		}
		printLayerTable(os.Stdout, tf.Workload, layerTable(tf))
		printSelfTimes(os.Stdout, tf)

	case *child:
		sp, ok := findSpec(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		// One core for the whole group. With two, a vCPU the host freezes
		// takes one member out while the others run on, which to the group
		// is a real failure, and a busy process is hit by every freeze of
		// either vCPU; on one, all members stop together, which the
		// protocol masks as a wrong suspicion (README, "The four workloads").
		runtime.GOMAXPROCS(1)
		d, err := runChild(defaultConfig(sp, *seed, time.Duration(*seconds)*time.Second, *trace != 0), *outDir)
		if err != nil {
			fatalf("%v", err)
		}
		emit(d)

	case *workload != "":
		if _, ok := findSpec(*workload); !ok {
			fatalf("unknown workload %q", *workload)
		}
		// The driver's form: one run, reported as it went; the result line
		// is the last on standard output. The exit code says whether the
		// benchmark ran, the line's "correct" whether the program was
		// right: a run that broke an oracle rule, or whose child died (a
		// run in which everything failed), still has a result and exits 0.
		d := supervise(*workload, *seed, *seconds, *trace != 0, *outDir)
		summarizeRun(os.Stderr, d)
		emit(d)

	default:
		ok := fullSet(*seed, *seconds, *traceSeconds, *agree, *outDir)
		if !ok {
			os.Exit(1)
		}
	}
}

// emit prints the detail line and, last, the driver's result line.
func emit(d *detail) {
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(struct {
		Detail *detail `json:"detail"`
	}{d})
	enc.Encode(d.resultLine())
}
