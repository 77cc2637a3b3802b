// Command twbench runs the reproduction's deterministic experiment
// suite (E1–E6, E8 and E9 of DESIGN.md) and prints one table per
// experiment, in the shape the paper's claims take: who wins, what the
// bounds are, where the crossovers fall. Absolute numbers reflect the
// simulated timed asynchronous system (delta=10ms, D=20ms LAN model),
// not the authors' 1998 SGI testbed; the relationships are what
// reproduce. Every table runs on the simulator's virtual clock, so the
// output is identical across runs of one build; the golden test in this
// package pins it. E7, the engine comparison, is timed on the wall clock
// and lives in the root package's benchmarks instead:
// go test -run '^$' -bench Engine .
//
// Usage:
//
//	twbench              # all experiments
//	twbench -exp e3      # one experiment
//	twbench -seeds 5     # average over more seeds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"timewheel/internal/check"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/scenario"
)

var (
	flagExp   = flag.String("exp", "all", "experiment to run: e1..e6, e8, e9 or all")
	flagSeeds = flag.Int("seeds", 3, "seeds to average over")
)

// suite prints experiments to w, averaging each over seeds.
type suite struct {
	w     io.Writer
	seeds int
}

// experiments is the suite in print order.
var experiments = []struct {
	id  string
	run func(suite)
}{
	{"e1", suite.e1FSMCoverage},
	{"e2", suite.e2FailureFreeTraffic},
	{"e3", suite.e3SingleFailureRecovery},
	{"e4", suite.e4FalseSuspicion},
	{"e5", suite.e5MultiFailureRecovery},
	{"e6", suite.e6Formation},
	{"e8", suite.e8ViewChangePurge},
	{"e9", suite.e9Properties},
}

func main() {
	flag.Parse()
	if err := run(os.Stdout, *flagExp, *flagSeeds); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run prints the experiment named exp, or all of them for "all", each
// followed by a blank line.
func run(w io.Writer, exp string, seeds int) error {
	s := suite{w: w, seeds: seeds}
	for _, e := range experiments {
		if exp == "all" {
			e.run(s)
			fmt.Fprintln(w)
		} else if e.id == exp {
			e.run(s)
			return nil
		}
	}
	if exp != "all" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func (s suite) header(id, claim string) {
	fmt.Fprintf(s.w, "=== %s — %s\n", strings.ToUpper(id), claim)
}

// avg runs a metric-producing scenario once per configured seed and
// averages each named metric over the runs that pass every invariant;
// when none passes, every metric reads -1.
func (s suite) avg(run func(seed int64) *scenario.Result, metrics ...string) []float64 {
	sums := make([]float64, len(metrics))
	n := 0
	for i := 0; i < s.seeds; i++ {
		r := run(int64(1000 + i))
		if r.Failed != "" {
			fmt.Fprintf(s.w, "    !! %s failed (seed %d): %s\n", r.Name, 1000+i, r.Failed)
			continue
		}
		if res := check.All(r.Cluster); !res.OK() {
			fmt.Fprintf(s.w, "    !! %s invariants (seed %d): %s\n", r.Name, 1000+i, res)
			continue
		}
		for j, m := range metrics {
			sums[j] += r.Metrics[m]
		}
		n++
	}
	for j := range sums {
		if n == 0 {
			sums[j] = -1
		} else {
			sums[j] /= float64(n)
		}
	}
	return sums
}

func (s suite) e1FSMCoverage() {
	s.header("e1", "Figure 2: group-creator state machine (see `twfsm` for the full diagram)")
	fmt.Fprintln(s.w, "    run `go run ./cmd/twfsm` — 15/15 labelled transitions exercised")
}

func (s suite) e2FailureFreeTraffic() {
	s.header("e2", "zero membership messages in failure-free periods (paper §1/§4)")
	const cycles = 50
	fmt.Fprintf(s.w, "  %4s %18s %18s %24s\n", "N", "membership msgs", "decision msgs", "heartbeat baseline msgs")
	for _, n := range []int{3, 5, 8, 16} {
		v := s.avg(func(seed int64) *scenario.Result {
			return scenario.FailureFree(n, seed, cycles)
		}, "membership_msgs", "decision_msgs")
		hb := scenario.HeartbeatBaseline(n, cycles, model.DefaultParams(n))
		fmt.Fprintf(s.w, "  %4d %18.0f %18.0f %24.0f\n", n, v[0], v[1], hb)
	}
	fmt.Fprintln(s.w, "  shape: membership column is 0 at every N; a conventional heartbeat")
	fmt.Fprintln(s.w, "  detector would add the last column on top of the decision traffic.")
}

func (s suite) e3SingleFailureRecovery() {
	s.header("e3", "single-failure recovery is fast: detect <=2D, elect <=(N-1) ring hops")
	p := model.DefaultParams(5)
	fmt.Fprintf(s.w, "  (D = %v)\n", p.D)
	fmt.Fprintf(s.w, "  %4s %16s %14s %16s\n", "N", "recovery (ms)", "recovery/D", "nd messages")
	for _, n := range []int{3, 5, 8, 12, 16} {
		v := s.avg(func(seed int64) *scenario.Result { return scenario.SingleCrash(n, seed) },
			"recovery_us", "recovery_over_D", "nd_messages")
		fmt.Fprintf(s.w, "  %4d %16.1f %14.2f %16.1f\n", n, v[0]/1000, v[1], v[2])
	}
	fmt.Fprintln(s.w, "  shape: recovery stays a small multiple of D and grows only with the")
	fmt.Fprintln(s.w, "  ring length (N-2 no-decision messages), as the paper claims.")
}

func (s suite) e4FalseSuspicion() {
	s.header("e4", "a false suspicion is masked: service continues, membership unchanged")
	ws := s.avg(func(seed int64) *scenario.Result { return scenario.FalseSuspicion(5, seed) }, "wrong_suspicions")[0]
	masked, runs := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		r := scenario.FalseSuspicion(5, seed)
		if r.Failed != "" {
			continue
		}
		runs++
		if r.Metrics["masked"] == 1 {
			masked++
		}
	}
	fmt.Fprintf(s.w, "  wrong-suspicion states entered: %.1f (suspicion was provoked)\n", ws)
	fmt.Fprintf(s.w, "  masked without membership change: %d/%d runs\n", masked, runs)
	fmt.Fprintln(s.w, "  shape: the false alarm is masked in the common case (the paper's")
	fmt.Fprintln(s.w, "  claim); when the suspect's retransmission is itself lost, the")
	fmt.Fprintln(s.w, "  protocol excludes and readmits — which the paper explicitly allows.")
}

func (s suite) e5MultiFailureRecovery() {
	s.header("e5", "multiple simultaneous failures recover via reconfiguration in ~2 cycles")
	fmt.Fprintf(s.w, "  %4s %4s %16s %18s\n", "N", "f", "recovery (ms)", "recovery (cycles)")
	for _, cfg := range []struct{ n, f int }{{8, 2}, {8, 3}, {12, 2}, {12, 4}} {
		v := s.avg(func(seed int64) *scenario.Result { return scenario.MultiCrash(cfg.n, cfg.f, seed) },
			"recovery_us", "recovery_cycles")
		fmt.Fprintf(s.w, "  %4d %4d %16.1f %18.2f\n", cfg.n, cfg.f, v[0]/1000, v[1])
	}
	fmt.Fprintln(s.w, "  shape: recovery is measured in cycles (time-slotted election), not in")
	fmt.Fprintln(s.w, "  D; the paper's 'a new decider is typically elected in two rounds'.")
}

func (s suite) e6Formation() {
	s.header("e6", "initial group formation and rejoin latency")
	fmt.Fprintf(s.w, "  %4s %18s %18s\n", "N", "formation (ms)", "rejoin (ms)")
	for _, n := range []int{3, 5, 8, 12, 16} {
		form := s.avg(func(seed int64) *scenario.Result {
			return scenario.FailureFree(n, seed, 1)
		}, "formation_us")[0]
		rejoin := s.avg(func(seed int64) *scenario.Result { return scenario.Rejoin(n, seed) }, "rejoin_us")[0]
		fmt.Fprintf(s.w, "  %4d %18.1f %18.1f\n", n, form/1000, rejoin/1000)
	}
	fmt.Fprintln(s.w, "  shape: both scale with the cycle length (N slots), since joins and")
	fmt.Fprintln(s.w, "  admissions ride the time-slotted protocol.")
}

func (s suite) e8ViewChangePurge() {
	s.header("e8", "order & atomicity across view changes (§4.3 purge machinery)")
	sems := []oal.Semantics{
		{Order: oal.Unordered, Atomicity: oal.WeakAtomicity},
		{Order: oal.TotalOrder, Atomicity: oal.WeakAtomicity},
		{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity},
		{Order: oal.TotalOrder, Atomicity: oal.StrictAtomicity},
		{Order: oal.TimeOrder, Atomicity: oal.StrongAtomicity},
	}
	fmt.Fprintf(s.w, "  %-18s %12s %16s %16s\n", "semantics", "delivered", "p50 latency(ms)", "p99 latency(ms)")
	for _, sem := range sems {
		name := sem.String()
		v := s.avg(func(seed int64) *scenario.Result { return scenario.Workload(5, seed, sem, 40) },
			"delivered", "latency_p50_us", "latency_p99_us")
		fmt.Fprintf(s.w, "  %-18s %12.0f %16.2f %16.2f\n", name, v[0], v[1]/1000, v[2]/1000)
	}
	fmt.Fprintln(s.w, "  shape: stronger semantics trade latency for guarantees; every")
	fmt.Fprintln(s.w, "  delivered count is complete and every run passes the §4.3 validators")
	fmt.Fprintln(s.w, "  (purge safety, order agreement, atomicity convergence).")
}

func (s suite) e9Properties() {
	s.header("e9", "fail-aware membership properties under randomized faults (§3)")
	violations := 0
	runs := 0
	for seed := int64(0); seed < int64(s.seeds*4); seed++ {
		for _, run := range []func(int64) *scenario.Result{
			func(s int64) *scenario.Result { return scenario.SingleCrash(5, s) },
			func(s int64) *scenario.Result { return scenario.MultiCrash(8, 2, s) },
			func(s int64) *scenario.Result { return scenario.Partition(5, s) },
			func(s int64) *scenario.Result { return scenario.Rejoin(5, s) },
			func(s int64) *scenario.Result { return scenario.SlowMember(5, s) },
			func(s int64) *scenario.Result { return scenario.Chaos(scenario.DefaultChaos(5, s)) },
		} {
			r := run(seed)
			runs++
			if r.Failed != "" {
				violations++
				continue
			}
			if res := check.All(r.Cluster); !res.OK() {
				violations++
				fmt.Fprintf(s.w, "    !! %s\n", res)
			}
		}
	}
	fmt.Fprintf(s.w, "  fault scenarios checked: %d, invariant violations: %d\n", runs, violations)
	fmt.Fprintln(s.w, "  invariants: view agreement, majority views, at-most-one-decider,")
	fmt.Fprintln(s.w, "  total/time order, FIFO, no-dup, purge safety, strict atomicity.")
}
