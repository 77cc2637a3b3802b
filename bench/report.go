package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stderrTail is how many lines of a dead child's stderr are kept.
const stderrTail = 40

// runOverhead is what a run takes beyond its window: forming the group
// three times, warm-up, drain, oracle, probes.
const runOverhead = 15 * time.Second

// lastLines returns the final n lines of s.
func lastLines(s string, n int) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[max(0, len(lines)-n):]
}

// supervise runs one workload pass in a child process. A child that
// panics, exits non-zero, prints no result or hangs past three times its
// window comes back as a failed run (Crashed, failed share 1) with the
// tail of its stderr, never as an error: the remaining runs still run.
func supervise(workload string, seed int64, seconds int, traced bool, outDir string) *detail {
	failed := func(why string, tail []string) *detail {
		return &detail{
			Workload: workload, Seed: seed, Seconds: float64(seconds), Traced: traced,
			Crashed: true, Attempted: 1, Failed: 1,
			Violations: []string{why}, Stderr: tail,
			Metrics: map[string]float64{}, Extra: map[string]float64{"failed_share": 1},
		}
	}
	self, err := os.Executable()
	if err != nil {
		return failed(fmt.Sprintf("cannot find own executable: %v", err), nil)
	}
	args := []string{
		"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", map[bool]string{false: "0", true: "1"}[traced],
	}
	if outDir != "" {
		args = append(args, "-out", outDir)
	}
	limit := 3*time.Duration(seconds)*time.Second + runOverhead
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// A hung child is asked to quit first, so that the Go runtime dumps
	// every goroutine's stack; it is killed if that takes too long.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()

	var d *detail
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Detail *detail `json:"detail"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Detail != nil {
			d = line.Detail
		}
	}
	switch {
	case ctx.Err() != nil:
		os.Stderr.Write(stderr.Bytes()) // the goroutine dump says where it hung
		return failed(fmt.Sprintf("child hung past %v and was killed", limit), lastLines(stderr.String(), stderrTail))
	case d == nil:
		return failed(fmt.Sprintf("child died without a result: %v", runErr), lastLines(stderr.String(), stderrTail))
	default:
		return d
	}
}

// --- tables --------------------------------------------------------------------

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 10:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}

// summarizeRun prints one finished pass for a human.
func summarizeRun(w io.Writer, d *detail) {
	pass := "untraced"
	if d.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s  (%s pass, seed %d, %gs window)\n", d.Workload, pass, d.Seed, d.Seconds)
	if d.Crashed {
		fmt.Fprintf(w, "   CRASHED: %s\n", strings.Join(d.Violations, "; "))
		for _, l := range d.Stderr {
			fmt.Fprintf(w, "   | %s\n", l)
		}
		return
	}
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d (refused %d, lost %d, late %d) orphaned=%d\n",
		d.Correct, d.Attempted, d.Failed, d.Refused, d.Lost, d.Late, d.Orphaned)
	for _, v := range d.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	if d.Extra["unforced_view_changes"] > 0 {
		fmt.Fprintf(w, "   %v view changes that no injected fault explains; every installation:\n", d.Extra["unforced_view_changes"])
		for _, l := range d.Views {
			fmt.Fprintf(w, "   | %s\n", l)
		}
	}
	if d.Traced {
		printLayerTable(w, d.Workload, d.Metrics)
		return
	}
	fmt.Fprintf(w, "   %-24s %12s  %-5s %-7s %s\n", "end-to-end metric", "value", "unit", "better", "bound")
	for _, def := range endToEndMetrics {
		fmt.Fprintf(w, "   %-24s %12s  %-5s %-7s %.0f%%\n", def.name, fmtValue(d.Metrics[def.name]), def.unit, def.better, def.bound*100)
	}
	sp, _ := findSpec(d.Workload)
	dMs := float64(sp.params().D.Std()) / float64(time.Millisecond)
	keys := make([]string, 0, len(d.Extra))
	for k := range d.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line := fmt.Sprintf("   %-24s %12s", k, fmtValue(d.Extra[k]))
		if strings.HasSuffix(k, "_p50_ms") {
			line += fmt.Sprintf("  ms = %.2f D", d.Extra[k]/dMs)
			if k == "view_install_p50_ms" {
				line += "  (paper: single-failure recovery in about 3.5 D)"
			}
		}
		fmt.Fprintln(w, line)
	}
	printTimings(w, d.Timings)
}

func printTimings(w io.Writer, timings map[string]timing) {
	keys := make([]string, 0, len(timings))
	for k := range timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "   %-28s %10s %12s %8s\n", "timing", "median", "tail", "samples")
	for _, k := range keys {
		t := timings[k]
		tail := "-"
		if t.TailLabel != "" {
			tail = t.TailLabel + "=" + fmtValue(t.Tail)
		}
		fmt.Fprintf(w, "   %-28s %10s %12s %8d\n", k, fmtValue(t.P50), tail, t.N)
	}
}

func printLayerTable(w io.Writer, workload string, table map[string]float64) {
	fmt.Fprintf(w, "   per-layer budget of %s\n", workload)
	fmt.Fprintf(w, "   %-40s %12s  %s\n", "metric", "value", "unit")
	for _, def := range perLayerMetrics {
		fmt.Fprintf(w, "   %-40s %12s  %s\n", def.name, fmtValue(table[def.name]), def.unit)
	}
}

// printSelfTimes prints, for every span name that has children, the
// median duration and the median self time: what is left of the span
// once the intervals its children cover are taken out.
func printSelfTimes(w io.Writer, tf *traceFile) {
	children := make(map[int][]span)
	for _, s := range tf.Spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self := make(map[string][]float64), make(map[string][]float64)
	for _, s := range tf.Spans {
		if kids := children[s.ID]; len(kids) > 0 {
			total[s.Name] = append(total[s.Name], s.duration())
			self[s.Name] = append(self[s.Name], selfTime(s, kids))
		}
	}
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-16s %8s %14s %14s\n", "span", "samples", "median us", "median self us")
	for _, name := range names {
		fmt.Fprintf(w, "   %-16s %8d %14s %14s\n", name, len(total[name]), fmtValue(median(total[name])), fmtValue(median(self[name])))
	}
}

// --- the full set ----------------------------------------------------------------

// setResult is one workload's two passes.
type setResult struct {
	untraced, traced *detail
}

// runSet runs every workload, untraced then traced, in the given order.
func runSet(order []spec, seed int64, seconds, traceSeconds int, outDir string) map[string]setResult {
	out := make(map[string]setResult)
	for _, sp := range order {
		var res setResult
		res.untraced = supervise(sp.name, seed, seconds, false, outDir)
		summarizeRun(os.Stdout, res.untraced)
		res.traced = supervise(sp.name, seed, traceSeconds, true, outDir)
		summarizeRun(os.Stdout, res.traced)
		if !res.untraced.Crashed && !res.traced.Crashed {
			base, with := res.untraced.Extra["cpu_us_per_delivered"], res.traced.Extra["cpu_us_per_delivered"]
			if base > 0 {
				fmt.Printf("   %-40s %12s  share  (cpu_us_per_delivered %s traced vs %s untraced)\n",
					"trace.overhead_share", fmtValue((with-base)/base), fmtValue(with), fmtValue(base))
			}
		}
		out[sp.name] = res
	}
	return out
}

func setOK(set map[string]setResult) bool {
	for _, res := range set {
		for _, d := range []*detail{res.untraced, res.traced} {
			if d.Crashed || !d.Correct {
				return false
			}
		}
	}
	return true
}

// fullSet is `go run -C bench .`: all workloads, both passes; with agree,
// twice in opposite orders, every end-to-end metric compared to its bound.
func fullSet(seed int64, seconds, traceSeconds int, agree bool, outDir string) bool {
	env := stampEnvironment(specs[0])
	fmt.Printf("timewheel bench: seed=%d window=%ds traced-window=%ds  %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		seed, seconds, traceSeconds, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Commit)
	fmt.Printf("%s\n", env.Params)
	fmt.Println("hub3_*: memory hub with zero injected delay, so latency is protocol timers plus CPU. udp5_*: traffic crosses the host loopback, not a link.")

	first := runSet(specs, seed, seconds, traceSeconds, outDir)
	ok := setOK(first)
	printMoves(os.Stdout)
	if !agree {
		return ok
	}
	reversed := make([]spec, len(specs))
	for i, sp := range specs {
		reversed[len(specs)-1-i] = sp
	}
	second := runSet(reversed, seed, seconds, traceSeconds, outDir)
	ok = ok && setOK(second)

	fmt.Printf("\n== agreement of two sets of runs of the same code\n")
	fmt.Printf("   %-14s %-22s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, sp := range specs {
		a, b := first[sp.name].untraced, second[sp.name].untraced
		if a.Crashed || b.Crashed {
			fmt.Printf("   %-14s a run crashed: no comparison\n", sp.name)
			continue
		}
		for _, def := range endToEndMetrics {
			x, y := a.Metrics[def.name], b.Metrics[def.name]
			diff := math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
			verdict := ""
			if diff > def.bound {
				verdict, ok = "  BREACH", false
			}
			fmt.Printf("   %-14s %-22s %12s %12s %8.1f%% %6.0f%%%s\n", sp.name, def.name, fmtValue(x), fmtValue(y), diff*100, def.bound*100, verdict)
		}
		// Not in the driver's contract, checked here all the same:
		// CPU cost against cpuBound, failed_share in absolute points.
		x, y := a.Extra["cpu_us_per_delivered"], b.Extra["cpu_us_per_delivered"]
		diff := math.Abs(x-y) / math.Min(x, y)
		verdict := ""
		if diff > cpuBound {
			verdict, ok = "  BREACH", false
		}
		fmt.Printf("   %-14s %-22s %12s %12s %8.1f%% %6.0f%%%s\n", sp.name, "cpu_us_per_delivered", fmtValue(x), fmtValue(y), diff*100, cpuBound*100, verdict)
		x, y = a.Extra["failed_share"], b.Extra["failed_share"]
		verdict = ""
		if math.Abs(x-y) > failedShareBoundPP/100 {
			verdict, ok = "  BREACH", false
		}
		fmt.Printf("   %-14s %-22s %12s %12s %7.2fpp %5.1fpp%s\n", sp.name, "failed_share", fmtValue(x), fmtValue(y), math.Abs(x-y)*100, failedShareBoundPP, verdict)
	}
	return ok
}

// printMoves prints, per layer, which end-to-end metric its metrics are
// expected to move and on which workload.
func printMoves(w io.Writer) {
	fmt.Fprintf(w, "\n== which layer metric should move which end-to-end metric\n")
	last := ""
	for _, def := range perLayerMetrics {
		if def.moves != last {
			fmt.Fprintf(w, "   %s...\n      -> %s\n", def.name, def.moves)
			last = def.moves
		}
	}
	for _, note := range interactionNotes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
}

// cpuBound is what -agree allows cpu_us_per_delivered to differ by
// between two sets: the widest the contract would allow any bound to be.
const cpuBound = 0.25

// failedShareBoundPP is failed_share's regression bound in absolute
// percentage points: a relative bound means nothing for a metric that is
// 0 on the seed.
const failedShareBoundPP = 0.5
