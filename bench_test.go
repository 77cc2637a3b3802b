package timewheel

// The benchmark harness regenerates the reproduction's experiment suite
// (DESIGN.md E1–E9) as testing.B benchmarks, one per table/figure, plus
// the ablations DESIGN.md calls out. Protocol benchmarks run on the
// deterministic simulator, so b.N iterations measure simulation work;
// the reported custom metrics (recovery_ms, msgs/cycle, ...) are the
// protocol-level quantities the paper's claims are about.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"timewheel/internal/broadcast"
	"timewheel/internal/check"
	"timewheel/internal/engine"
	"timewheel/internal/member"
	"timewheel/internal/model"
	"timewheel/internal/netsim"
	"timewheel/internal/node"
	"timewheel/internal/oal"
	"timewheel/internal/scenario"
	"timewheel/internal/wire"
)

// --- E1: the state machine itself -------------------------------------------

// BenchmarkFSMStep measures the group creator's per-message cost on its
// hottest input: adopting a rotation decision (the failure-free path),
// across group sizes.
func BenchmarkFSMStep(b *testing.B) {
	for _, n := range []int{3, 5, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			params := model.DefaultParams(n)
			env := &benchEnv{now: 1_000_000}
			bc := broadcast.New(model.ProcessID(n-1), params, broadcast.Config{})
			m := member.New(model.ProcessID(n-1), params, member.Config{}, env, bc)
			m.Start()
			var members []model.ProcessID
			for i := 0; i < n; i++ {
				members = append(members, model.ProcessID(i))
			}
			g := model.NewGroup(1, members)
			l := oal.NewList()
			l.AppendMembership(g)
			m.OnMessage(&wire.Decision{Header: wire.Header{From: 0, SendTS: env.now}, Group: g, OAL: *l, Alive: g.Members})

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.now += 1000
				view := bc.CurrentView()
				m.OnMessage(&wire.Decision{
					Header: wire.Header{From: model.ProcessID(i % (n - 1)), SendTS: env.now},
					Group:  g, OAL: *view, Alive: g.Members,
				})
			}
		})
	}
}

type benchEnv struct{ now model.Time }

func (e *benchEnv) Now() model.Time                       { return e.now }
func (e *benchEnv) Broadcast(wire.Message)                {}
func (e *benchEnv) Unicast(model.ProcessID, wire.Message) {}
func (e *benchEnv) SetTimer(member.TimerID, model.Time)   {}
func (e *benchEnv) CancelTimer(member.TimerID)            {}

// --- E2: failure-free traffic -------------------------------------------------

// BenchmarkFailureFreeTraffic reproduces the zero-membership-message
// claim: msgs/cycle metrics come from a formed group running quietly.
func BenchmarkFailureFreeTraffic(b *testing.B) {
	for _, n := range []int{3, 5, 8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var member, decision float64
			for i := 0; i < b.N; i++ {
				r := scenario.FailureFree(n, int64(i), 20)
				if r.Failed != "" {
					b.Fatal(r.Failed)
				}
				member += r.Metrics["membership_msgs"]
				decision += r.Metrics["decision_msgs"]
			}
			b.ReportMetric(member/float64(b.N)/20, "membership_msgs/cycle")
			b.ReportMetric(decision/float64(b.N)/20, "decision_msgs/cycle")
		})
	}
}

// BenchmarkHeartbeatBaseline quantifies what a conventional heartbeat
// failure detector would send over the same period (the ablation the
// paper's claim is implicitly against).
func BenchmarkHeartbeatBaseline(b *testing.B) {
	for _, n := range []int{3, 5, 8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			params := model.DefaultParams(n)
			var total float64
			for i := 0; i < b.N; i++ {
				total += scenario.HeartbeatBaseline(n, 20, params)
			}
			b.ReportMetric(total/float64(b.N)/20, "heartbeat_msgs/cycle")
		})
	}
}

// --- E3: single-failure recovery ----------------------------------------------

func BenchmarkSingleFailureRecovery(b *testing.B) {
	for _, n := range []int{3, 5, 8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var rec float64
			for i := 0; i < b.N; i++ {
				r := scenario.SingleCrash(n, int64(i))
				if r.Failed != "" {
					b.Fatal(r.Failed)
				}
				rec += r.Metrics["recovery_us"]
			}
			b.ReportMetric(rec/float64(b.N)/1000, "recovery_ms")
		})
	}
}

// BenchmarkAlwaysReconfigureAblation disables the single-failure fast
// path, forcing the time-slotted election for every failure — the
// design alternative the paper's optimisation is measured against.
func BenchmarkAlwaysReconfigureAblation(b *testing.B) {
	for _, n := range []int{5, 8} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var rec float64
			ok := 0
			for i := 0; i < b.N; i++ {
				c := node.NewCluster(node.Options{
					Seed: int64(i), Params: model.DefaultParams(n),
					PerfectClocks: true, DisableFastPath: true,
				})
				c.Start()
				c.Run(model.Duration(6) * c.Params.CycleLen())
				victim := model.ProcessID(1)
				c.Crash(victim)
				crashAt := c.Sim.Now()
				c.Run(model.Duration(10) * c.Params.CycleLen())
				last := c.Node(0).Views
				if len(last) > 0 && !last[len(last)-1].Group.Contains(victim) {
					rec += float64(last[len(last)-1].At.Sub(crashAt))
					ok++
				}
			}
			if ok > 0 {
				b.ReportMetric(rec/float64(ok)/1000, "recovery_ms")
			}
		})
	}
}

// --- E4: false suspicion -------------------------------------------------------

func BenchmarkFalseSuspicion(b *testing.B) {
	var masked, ws float64
	for i := 0; i < b.N; i++ {
		r := scenario.FalseSuspicion(5, int64(i))
		if r.Failed != "" {
			b.Fatal(r.Failed)
		}
		masked += r.Metrics["masked"]
		ws += r.Metrics["wrong_suspicions"]
	}
	b.ReportMetric(masked/float64(b.N), "masked_fraction")
	b.ReportMetric(ws/float64(b.N), "wrong_suspicions")
}

// --- E5: multi-failure recovery -----------------------------------------------

func BenchmarkMultiFailureRecovery(b *testing.B) {
	for _, cfg := range []struct{ n, f int }{{8, 2}, {8, 3}, {12, 4}} {
		b.Run(fmt.Sprintf("N=%d/f=%d", cfg.n, cfg.f), func(b *testing.B) {
			var cyc float64
			for i := 0; i < b.N; i++ {
				r := scenario.MultiCrash(cfg.n, cfg.f, int64(i))
				if r.Failed != "" {
					b.Fatal(r.Failed)
				}
				cyc += r.Metrics["recovery_cycles"]
			}
			b.ReportMetric(cyc/float64(b.N), "recovery_cycles")
		})
	}
}

// --- E6: formation and rejoin ---------------------------------------------------

func BenchmarkGroupFormation(b *testing.B) {
	for _, n := range []int{3, 5, 8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var form float64
			for i := 0; i < b.N; i++ {
				r := scenario.FailureFree(n, int64(i), 1)
				if r.Failed != "" {
					b.Fatal(r.Failed)
				}
				form += r.Metrics["formation_us"]
			}
			b.ReportMetric(form/float64(b.N)/1000, "formation_ms")
		})
	}
}

func BenchmarkRejoin(b *testing.B) {
	var rej float64
	for i := 0; i < b.N; i++ {
		r := scenario.Rejoin(5, int64(i))
		if r.Failed != "" {
			b.Fatal(r.Failed)
		}
		rej += r.Metrics["rejoin_us"]
	}
	b.ReportMetric(rej/float64(b.N)/1000, "rejoin_ms")
}

// --- E7: engines (paper §5) ------------------------------------------------------
//
// E7 is timed on the wall clock, so it lives here rather than among
// twbench's deterministic tables.

// benchEngine times the two costs E7 compares. dispatch is the serial
// Post -> Handled round trip: the protocol core handles one event at a
// time, so that, not pipelined throughput, is its cost per event.
// lifecycle is one engine's setup and teardown.
func benchEngine(b *testing.B, mk func(engine.Handler) engine.Engine) {
	b.Run("dispatch", func(b *testing.B) {
		e := mk(func(engine.Event) {})
		defer e.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := uint64(0); i < uint64(b.N); i++ {
			for !e.Post(engine.Event{Type: engine.EventType(i % uint64(engine.NumEventTypes))}) {
				runtime.Gosched()
			}
			for e.Handled() <= i {
				runtime.Gosched()
			}
		}
	})
	b.Run("lifecycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mk(func(engine.Event) {}).Stop()
		}
	})
}

func BenchmarkEngineEventLoop(b *testing.B) {
	benchEngine(b, func(h engine.Handler) engine.Engine { return engine.NewEventLoop(h, 4096) })
}

func BenchmarkEngineThreaded(b *testing.B) {
	benchEngine(b, func(h engine.Handler) engine.Engine { return engine.NewThreaded(h, 512) })
}

// --- E8: broadcast semantics across view changes ---------------------------------

func BenchmarkViewChangePurge(b *testing.B) {
	sems := map[string]oal.Semantics{
		"unordered-weak": {Order: oal.Unordered, Atomicity: oal.WeakAtomicity},
		"total-strong":   {Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity},
		"total-strict":   {Order: oal.TotalOrder, Atomicity: oal.StrictAtomicity},
		"time-strong":    {Order: oal.TimeOrder, Atomicity: oal.StrongAtomicity},
	}
	for name, sem := range sems {
		b.Run(name, func(b *testing.B) {
			var p50 float64
			for i := 0; i < b.N; i++ {
				r := scenario.Workload(5, int64(i), sem, 30)
				if r.Failed != "" {
					b.Fatal(r.Failed)
				}
				p50 += r.Metrics["latency_p50_us"]
			}
			b.ReportMetric(p50/float64(b.N)/1000, "p50_ms")
		})
	}
}

// --- E9: property checking over histories ---------------------------------------

func BenchmarkPropertyCheck(b *testing.B) {
	r := scenario.MultiCrash(8, 2, 1)
	if r.Failed != "" {
		b.Fatal(r.Failed)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := check.All(r.Cluster); !res.OK() {
			b.Fatal(res)
		}
	}
}

// --- Ablations and micro-benchmarks ----------------------------------------------

// BenchmarkDelayDistributionAblation: formation latency under different
// network delay models (constant, uniform, heavy-tail).
func BenchmarkDelayDistributionAblation(b *testing.B) {
	params := model.DefaultParams(5)
	dists := map[string]netsim.DelayFn{
		"constant":   netsim.ConstantDelay(params.Delta / 4),
		"uniform":    netsim.UniformDelay(params.Delta/10, params.Delta/2),
		"heavy-tail": netsim.HeavyTailDelay(params.Delta/10, params.Delta/2, 0.05, 4),
	}
	for name, d := range dists {
		b.Run(name, func(b *testing.B) {
			var form float64
			formed := 0
			for i := 0; i < b.N; i++ {
				c := node.NewCluster(node.Options{
					Seed: int64(i), Params: params, PerfectClocks: true, Delay: d,
				})
				c.Start()
				deadline := model.Duration(8) * c.Params.CycleLen()
				c.Run(deadline)
				ok := true
				for _, nd := range c.Nodes {
					g, have := nd.CurrentGroup()
					if !have || g.Size() != 5 {
						ok = false
					}
				}
				if ok {
					var worst model.Time
					for _, nd := range c.Nodes {
						if len(nd.Views) > 0 && nd.Views[0].At > worst {
							worst = nd.Views[0].At
						}
					}
					form += float64(worst)
					formed++
				}
			}
			if formed > 0 {
				b.ReportMetric(form/float64(formed)/1000, "formation_ms")
			}
			b.ReportMetric(float64(formed)/float64(b.N), "formed_fraction")
		})
	}
}

// BenchmarkDeciderHoldAblation: rotation rate vs the decider batching
// window (trade-off between failure-detection latency and message rate).
func BenchmarkDeciderHoldAblation(b *testing.B) {
	params := model.DefaultParams(5)
	for _, hold := range []model.Duration{params.D / 10, params.D / 4, params.D / 2, params.D * 3 / 4} {
		b.Run(fmt.Sprintf("hold=%v", hold), func(b *testing.B) {
			var perCycle float64
			for i := 0; i < b.N; i++ {
				c := node.NewCluster(node.Options{
					Seed: int64(i), Params: params, PerfectClocks: true, DeciderHold: hold,
				})
				c.Start()
				c.Run(model.Duration(4) * c.Params.CycleLen())
				before := c.Net.Stats().Broadcasts[wire.KindDecision]
				c.Run(model.Duration(10) * c.Params.CycleLen())
				after := c.Net.Stats().Broadcasts[wire.KindDecision]
				perCycle += float64(after-before) / 10
			}
			b.ReportMetric(perCycle/float64(b.N), "decisions/cycle")
		})
	}
}

// BenchmarkOALOps: the ordering-and-acknowledgement list's hot
// operations.
func BenchmarkOALOps(b *testing.B) {
	b.Run("append+ack", func(b *testing.B) {
		l := oal.NewList()
		for i := 0; i < b.N; i++ {
			id := oal.ProposalID{Proposer: model.ProcessID(i % 8), Seq: uint64(i)}
			l.AppendUpdate(id, oal.Semantics{}, model.Time(i), oal.None, 0)
			l.Ack(id, model.ProcessID(i%8))
			if l.Len() > 64 {
				l.TruncateStable(func(*oal.Descriptor) bool { return true })
			}
		}
	})
	b.Run("findOrdinal", func(b *testing.B) {
		l := oal.NewList()
		for i := 0; i < 64; i++ {
			l.AppendUpdate(oal.ProposalID{Proposer: 0, Seq: uint64(i)}, oal.Semantics{}, 0, oal.None, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if l.FindOrdinal(oal.Ordinal(i%64+1)) == nil {
				b.Fatal("missing")
			}
		}
	})
}

// BenchmarkEndToEndRealTime: wall-clock latency of a strong total-order
// broadcast on a live three-node in-memory cluster.
func BenchmarkEndToEndRealTime(b *testing.B) {
	hub := NewMemoryHub(HubConfig{MaxDelay: 200 * time.Microsecond, Seed: 5})
	defer hub.Close()
	const n = 3
	delivered := make(chan struct{}, 1024)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		var err error
		id := i
		nodes[i], err = NewNode(Config{
			ID: i, ClusterSize: n, Transport: hub.Transport(i), Params: fastParams(),
			OnDeliver: func(Delivery) {
				if id == 0 {
					delivered <- struct{}{}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if v, ok := nodes[0].CurrentView(); ok && len(v.Members) == n {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("no formation")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := nodes[i%n].Propose([]byte("bench"), TotalOrder, Strong)
			if err == nil {
				break
			}
			if err != ErrNotMember {
				b.Fatal(err)
			}
			// A transient suspicion under benchmark load: wait out the
			// churn and retry.
			time.Sleep(time.Millisecond)
		}
		<-delivered
	}
}

// BenchmarkChaos runs the randomized fault schedule (crashes, recoveries,
// partitions, mixed-semantics proposals) once per iteration, with the
// invariant suite validating each run.
func BenchmarkChaos(b *testing.B) {
	var views float64
	for i := 0; i < b.N; i++ {
		r := scenario.Chaos(scenario.DefaultChaos(5, int64(i)))
		if r.Failed != "" {
			b.Fatal(r.Failed)
		}
		if res := check.All(r.Cluster); !res.OK() {
			b.Fatal(res)
		}
		views += r.Metrics["views_installed_total"]
	}
	b.ReportMetric(views/float64(b.N), "views_installed")
}

// BenchmarkSlotPadAblation varies the slot padding (the slack absorbing
// clock deviation and scheduling delay on top of the model's D+delta
// minimum) and measures formation reliability and latency with drifting
// clocks: too little pad and slot boundaries observed on different
// synchronized clocks stop overlapping.
func BenchmarkSlotPadAblation(b *testing.B) {
	base := model.DefaultParams(5)
	for _, pad := range []model.Duration{0, base.Epsilon, base.Epsilon + base.Sigma + 3*model.Millisecond} {
		b.Run(fmt.Sprintf("pad=%v", pad), func(b *testing.B) {
			params := base
			params.SlotPad = pad
			formedCount := 0
			var latency float64
			for i := 0; i < b.N; i++ {
				c := node.NewCluster(node.Options{
					Seed: int64(i), Params: params,
					PerfectClocks:  false,
					MaxClockOffset: params.Epsilon,
				})
				c.Start()
				c.Run(model.Duration(8) * params.CycleLen())
				ok := true
				var worst model.Time
				for _, nd := range c.Nodes {
					g, have := nd.CurrentGroup()
					if !have || g.Size() != 5 {
						ok = false
						break
					}
					if len(nd.Views) > 0 && nd.Views[0].At > worst {
						worst = nd.Views[0].At
					}
				}
				if ok {
					formedCount++
					latency += float64(worst)
				}
			}
			b.ReportMetric(float64(formedCount)/float64(b.N), "formed_fraction")
			if formedCount > 0 {
				b.ReportMetric(latency/float64(formedCount)/1000, "formation_ms")
			}
		})
	}
}

// BenchmarkClockSyncModes compares the two clock-synchronization
// mechanisms (one-way beacons with the midpoint assumption vs fail-aware
// probe/echo round trips with measured bounds) by the worst pairwise
// deviation they sustain on a running cluster.
func BenchmarkClockSyncModes(b *testing.B) {
	params := model.DefaultParams(5)
	for _, mode := range []struct {
		name string
		rt   bool
	}{{"beacon", false}, {"round-trip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				c := node.NewCluster(node.Options{
					Seed:           int64(i),
					Params:         params,
					PerfectClocks:  false,
					RoundTripSync:  mode.rt,
					MaxClockOffset: params.Epsilon,
					Delay:          netsim.UniformDelay(params.Epsilon/4, params.Epsilon-1),
				})
				c.Start()
				c.Run(model.Duration(4) * params.CycleLen())
				var dev float64
				for k := 0; k < 20; k++ {
					c.Run(params.D)
					var readings []model.Time
					for _, n := range c.Nodes {
						readings = append(readings, n.SyncedNow())
					}
					for x := 0; x < len(readings); x++ {
						for y := x + 1; y < len(readings); y++ {
							d := float64(readings[x].Sub(readings[y]))
							if d < 0 {
								d = -d
							}
							if d > dev {
								dev = d
							}
						}
					}
				}
				worst += dev
			}
			b.ReportMetric(worst/float64(b.N)/1000, "worst_deviation_ms")
		})
	}
}

// BenchmarkMixedChurn is the §4.3 torture workload: all nine semantics
// under repeated membership churn, invariant-checked per iteration.
func BenchmarkMixedChurn(b *testing.B) {
	var delivered float64
	for i := 0; i < b.N; i++ {
		r := scenario.MixedChurn(5, int64(i), 2)
		if r.Failed != "" {
			b.Fatal(r.Failed)
		}
		if res := check.All(r.Cluster); !res.OK() {
			b.Fatal(res)
		}
		delivered += r.Metrics["deliveries_total"]
	}
	b.ReportMetric(delivered/float64(b.N), "deliveries")
}
