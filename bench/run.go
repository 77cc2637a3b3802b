package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	spec    spec
	seed    int64
	seconds time.Duration // measured window
	traced  bool
	setups  int    // group formations timed for setup_s (the last one is used)
	tmp     string // fresh directory for DataDirs and the span file
	warmup  time.Duration
	drain   time.Duration
	crash   crashPlan
}

// crashPlan is the cadence of the fault workload's crash/restart cycles.
type crashPlan struct {
	every  time.Duration // one crash per `every`, rotating over all members
	jitter time.Duration // seeded +-jitter, so the wheel phase at the crash is sampled uniformly
	down   time.Duration // the victim stays down this long
	tail   time.Duration // no new crash this close to the window's end, so the last rejoin completes inside it
}

// defaultConfig is the shape every measured run uses.
func defaultConfig(sp spec, seed int64, seconds time.Duration, traced bool) runConfig {
	return runConfig{
		spec: sp, seed: seed, seconds: seconds, traced: traced,
		setups: 3, warmup: 3 * time.Second, drain: 2 * time.Second,
		crash: crashPlan{every: 20 * time.Second, jitter: 450 * time.Millisecond, down: 600 * time.Millisecond, tail: 2500 * time.Millisecond},
	}
}

// cycle is one injected crash/restart.
type cycle struct {
	victim                   int
	crashStart, crashEnd     int64 // around Stop()
	viewInstalled            int64 // last survivor installed the N-1 view
	restartStart, restartEnd int64 // around NewNode+Start
	rejoined                 int64 // every member installed the N view again
	installErr, rejoinErr    error
}

// run is the state of one workload run in progress.
type run struct {
	cfg   runConfig
	clock func() int64
	rng   *rand.Rand
	book  *book
	c     *cluster
	pool  *payloadPool
	mix   []class

	next     atomic.Uint64 // next proposal index
	rr       atomic.Uint64 // round-robin proposer cursor
	stopGen  atomic.Bool
	endAt    atomic.Int64 // open loop: the window's end once it is known; proposals due before it are all sent
	overflow atomic.Bool  // the book filled up: the run is void

	slots chan struct{} // closed loop: window of outstanding proposals

	setupS      []float64
	t0, t1      int64   // proposals due in [t0, t1) are the measured ones
	elapsedS    float64 // measured length of the window
	cpuUs       float64
	mallocs     uint64 // traced pass: heap objects allocated by the process over the window
	mallocBytes uint64
	cycles      []cycle
	recoverMs   []float64
	replayed    []map[uint64]bool // per node: indices replayed from its DataDir
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bookCapacity is generous: the open loop needs rate × time, the closed
// loop is bounded by what the box can deliver.
func bookCapacity(cfg runConfig) int {
	total := (cfg.warmup + cfg.seconds + time.Second).Seconds()
	perSecond := float64(cfg.spec.rate)
	if cfg.spec.rate == 0 {
		perSecond = 25000
	}
	return int(perSecond*total) + 1024
}

// execute runs the workload and leaves everything observed in r.
func (r *run) execute() error {
	cfg := r.cfg
	sp := cfg.spec
	r.book = newBook(bookCapacity(cfg))
	r.pool = newPayloadPool(r.rng, sp.payload)
	r.mix = classSchedule(r.rng, sp.mix)

	// Set-up: form the group cfg.setups times, keep the last.
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("data%d", i))
		began := time.Now()
		c, err := newCluster(sp, dir, cfg.traced, r.clock, r.book)
		if err != nil {
			return err
		}
		if err := c.form(20 * time.Second); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(began).Seconds())
		if i < cfg.setups-1 {
			c.stop()
			os.RemoveAll(dir)
			continue
		}
		r.c = c
	}
	c := r.c

	var gens sync.WaitGroup
	if sp.rate > 0 {
		gens.Add(1)
		go func() { defer gens.Done(); r.pace() }()
	} else {
		r.slots = make(chan struct{}, sp.window)
		for i := 0; i < sp.window; i++ {
			r.slots <- struct{}{}
		}
		c.release = func() {
			select {
			case r.slots <- struct{}{}:
			default: // cannot happen: one release per taken slot
			}
		}
		for i := 0; i < sp.senders; i++ {
			gens.Add(1)
			go func() { defer gens.Done(); r.closedLoop() }()
		}
		gens.Add(1)
		go func() { defer gens.Done(); r.sweep() }()
	}

	time.Sleep(cfg.warmup)
	c.openWindow()
	var mem0, mem1 runtime.MemStats
	if cfg.traced {
		runtime.ReadMemStats(&mem0)
	}
	cpu0 := cpuTime()
	r.t0 = r.clock()
	r.t1 = r.t0 + int64(cfg.seconds)
	r.endAt.Store(r.t1)
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		if sp.crash {
			r.crashLoop(r.t0, r.t1)
		}
	}()
	time.Sleep(time.Duration(r.t1 - r.clock()))
	r.elapsedS = float64(r.clock()-r.t0) / float64(time.Second)
	r.cpuUs = float64(cpuTime()-cpu0) / float64(time.Microsecond)
	if cfg.traced {
		runtime.ReadMemStats(&mem1)
		r.mallocs, r.mallocBytes = mem1.Mallocs-mem0.Mallocs, mem1.TotalAlloc-mem0.TotalAlloc
	}
	c.active.Store(false)
	<-crashDone
	c.closeWindow()

	r.stopGen.Store(true)
	gens.Wait()
	time.Sleep(cfg.drain)
	c.stop()
	if r.overflow.Load() {
		return fmt.Errorf("%s: more than %d proposals: the book is full", sp.name, r.book.capacity())
	}
	if sp.durable {
		return r.replayDataDirs()
	}
	return nil
}

// begin claims the next proposal index and fills in its row; ok is false
// when the book is full.
func (r *run) begin(due int64) (idx uint64, cl class, ok bool) {
	idx = r.next.Add(1) - 1
	if idx >= uint64(r.book.capacity()) {
		r.overflow.Store(true)
		r.stopGen.Store(true)
		return 0, 0, false
	}
	cl = r.mix[idx%uint64(len(r.mix))]
	r.book.due[idx] = due
	r.book.class[idx] = cl
	r.book.state[idx].Store(stPending)
	return idx, cl, true
}

// send proposes idx at the next live member in round-robin order.
func (r *run) send(idx uint64, cl class) proposeResult {
	members := r.c.members
	payload := r.pool.make(idx)
	for range members {
		m := members[r.rr.Add(1)%uint64(len(members))]
		if !m.live.Load() {
			continue
		}
		if res := r.c.propose(m, idx, payload, cl); res != absent {
			return res
		}
	}
	// Nobody is a member: to the client that is a refusal.
	now := r.clock()
	r.book.entered[idx], r.book.returned[idx] = now, now
	return refused
}

// pace is the open-loop generator: proposal i is due at start + i/rate
// whatever happened to the ones before it, and is timed from then. It
// runs until every proposal due inside the window has been sent, however
// late, so a stall at the window's end cannot drop proposals from the
// count.
func (r *run) pace() {
	interval := int64(time.Second) / int64(r.cfg.spec.rate)
	start := r.clock()
	for i := int64(0); !r.overflow.Load(); i++ {
		due := start + i*interval
		if end := r.endAt.Load(); end != 0 && due >= end {
			return
		}
		if wait := due - r.clock(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		idx, cl, ok := r.begin(due)
		if !ok {
			return
		}
		if r.send(idx, cl) == refused {
			r.book.state[idx].Store(stRefused)
		}
	}
}

// closedLoop is one sender of the closed loop: it needs a window slot to
// send, and the slot comes back when the proposal completes.
func (r *run) closedLoop() {
	for !r.stopGen.Load() {
		select {
		case <-r.slots:
		case <-time.After(50 * time.Millisecond):
			continue // look at stopGen again
		}
		idx, cl, ok := r.begin(r.clock())
		if !ok {
			return
		}
		if r.send(idx, cl) == refused {
			if r.book.state[idx].CompareAndSwap(stPending, stRefused) {
				r.c.release()
			}
		}
	}
}

// sweep reclaims window slots whose proposal did not come back within
// slotTimeout.
func (r *run) sweep() {
	var low uint64
	for !r.stopGen.Load() {
		time.Sleep(20 * time.Millisecond)
		low = r.sweepOnce(low, r.clock())
	}
}

// sweepOnce times out pending proposals older than slotTimeout, starting
// at index low, and returns the first index that is not settled yet.
// Indices are handed out in send order, so the first young pending
// proposal ends the scan: everything behind it is younger.
func (r *run) sweepOnce(low uint64, now int64) uint64 {
	b := r.book
	end := min(r.next.Load(), uint64(b.capacity()))
	for i := low; i < end; i++ {
		switch b.state[i].Load() {
		case stUnused:
			return i // claimed, row not written yet
		case stPending:
			if now-b.due[i] <= int64(slotTimeout) {
				return i
			}
			if b.state[i].CompareAndSwap(stPending, stTimedOut) {
				r.c.release()
			}
		}
	}
	return end
}

// crashLoop injects the crash/restart cycles of the fault workload
// between t0 and t1.
func (r *run) crashLoop(t0, t1 int64) {
	n := r.c.spec.n
	plan := r.cfg.crash
	victims := r.rng.Perm(n)
	for k := 0; ; k++ {
		jitter := r.rng.Int63n(2*int64(plan.jitter)) - int64(plan.jitter)
		at := t0 + int64(plan.every)/3 + int64(k)*int64(plan.every) + jitter
		if at > t1-int64(plan.tail) {
			return
		}
		time.Sleep(time.Duration(at - r.clock()))
		r.cycles = append(r.cycles, r.crashOnce(victims[k%n]))
	}
}

func (r *run) crashOnce(victim int) cycle {
	c := r.c
	m := c.members[victim]
	cyc := cycle{victim: victim}
	var survivors []int
	for id := 0; id < c.spec.n; id++ {
		if id != victim {
			survivors = append(survivors, id)
		}
	}

	m.up.Store(false)
	node := c.take(m)
	final := readStats(node)
	c.mu.Lock()
	c.stats.addDiff(final, m.base)
	c.mu.Unlock()
	cyc.crashStart = r.clock()
	node.Stop() // no goodbye: to the group this is a crash
	cyc.crashEnd = r.clock()

	cyc.viewInstalled, cyc.installErr = c.awaitViews(survivors, c.spec.n-1, victim, 5*time.Second)
	if rest := cyc.crashStart + int64(r.cfg.crash.down) - r.clock(); rest > 0 {
		time.Sleep(time.Duration(rest))
	}

	c.mu.Lock()
	c.lastView[victim] = viewEvent{}
	c.mu.Unlock()
	cyc.restartStart = r.clock()
	if err := c.boot(m); err != nil {
		cyc.rejoinErr = err
		return cyc
	}
	cyc.restartEnd = r.clock()
	cyc.rejoined, cyc.rejoinErr = c.awaitViews(c.allIDs(), c.spec.n, -1, 5*time.Second)
	return cyc
}
