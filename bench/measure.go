package main

import (
	"sort"
	"time"
)

// outcome is the end-to-end view of a finished run: the proposals that
// were due inside the measured window and what became of them.
type outcome struct {
	windowS   float64
	attempted int
	refused   int // Propose said ErrNotMember / ErrStopped
	lost      int // accepted, never delivered at the proposer (or slot timed out)
	late      int // delivered, but later than deadline after due
	orphaned  int // in flight at a node when the harness crashed it: its client died too

	latencyMs [numClasses][]float64 // due -> proposer delivery, per class
	all       []float64             // the same, all classes together
	counted   []uint64              // indices behind `all`, for the spans
}

func (o *outcome) failed() int    { return o.refused + o.lost + o.late }
func (o *outcome) delivered() int { return o.attempted - o.failed() }

// judge classifies every proposal due in [t0, t1).
//
// A proposal that was in flight at a member when the harness crashed
// that member is set aside as orphaned, neither attempted nor failed:
// Propose and OnDeliver are in-process calls, so the client that could
// have observed the delivery died with the node. Proposals at the
// survivors, including those due while the view is being installed,
// are all counted.
func judge(r *run) *outcome {
	b := r.book
	o := &outcome{windowS: r.elapsedS}
	end := min(r.next.Load(), uint64(b.capacity()))
	for i := uint64(0); i < end; i++ {
		st := b.state[i].Load()
		if st == stUnused || b.due[i] < r.t0 || b.due[i] >= r.t1 {
			continue
		}
		if st != stRefused && r.orphan(i, st) {
			o.orphaned++
			continue
		}
		o.attempted++
		switch st {
		case stRefused:
			o.refused++
		case stPending, stTimedOut:
			o.lost++
		case stDelivered:
			lat := b.done[i] - b.due[i]
			if lat > int64(deadline) {
				o.late++
				continue
			}
			ms := float64(lat) / float64(time.Millisecond)
			o.latencyMs[b.class[i]] = append(o.latencyMs[b.class[i]], ms)
			o.all = append(o.all, ms)
			o.counted = append(o.counted, i)
		}
	}
	return o
}

// orphan reports whether proposal i was accepted by a node that the
// harness then crashed before the proposal was delivered there.
func (r *run) orphan(i uint64, st uint32) bool {
	b := r.book
	for _, cyc := range r.cycles {
		if int(b.node[i]) != cyc.victim || b.entered[i] >= cyc.crashStart {
			continue
		}
		if st != stDelivered || b.done[i] > cyc.crashStart {
			return true
		}
	}
	return false
}

// endToEnd computes the metrics a user of the group would see. Only the
// untraced pass reports them.
func endToEnd(r *run, o *outcome) map[string]float64 {
	s := sortedCopy(o.all)
	return map[string]float64{
		"setup_s":         median(r.setupS),
		"commit_p50_ms":   quantile(s, 0.50),
		"commit_p90_ms":   quantile(s, 0.90),
		"delivered_per_s": float64(o.delivered()) / o.windowS,
	}
}

// cpuPerDelivered is the process's user+sys CPU time over the window per
// delivered proposal, in µs: what one delivered proposal costs, harness
// included.
func cpuPerDelivered(r *run, o *outcome) float64 {
	if o.delivered() == 0 {
		return 0
	}
	return r.cpuUs / float64(o.delivered())
}

// cycleTimings are the fault workload's per-cycle durations in ms.
type cycleTimings struct {
	viewInstall, rejoin, outage []float64
}

func timeCycles(r *run) cycleTimings {
	var t cycleTimings
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	for _, cyc := range r.cycles {
		if cyc.installErr != nil || cyc.rejoinErr != nil {
			continue
		}
		t.viewInstall = append(t.viewInstall, ms(cyc.viewInstalled-cyc.crashStart))
		t.rejoin = append(t.rejoin, ms(cyc.rejoined-cyc.restartEnd))
		from, to := r.longestSilence(cyc)
		t.outage = append(t.outage, ms(to-from))
	}
	return t
}

// longestSilence is the longest interval between the crash and the end of
// the rejoin during which no survivor delivered anything: the time the
// group gave no service.
func (r *run) longestSilence(cyc cycle) (from, to int64) {
	at := []int64{cyc.crashStart, cyc.rejoined}
	for _, inc := range r.c.incs {
		if inc.node == cyc.victim {
			continue
		}
		log := inc.log
		lo := sort.Search(len(log), func(i int) bool { return log[i].at >= cyc.crashStart })
		for _, d := range log[lo:] {
			if d.at > cyc.rejoined {
				break
			}
			at = append(at, d.at)
		}
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] > to-from {
			from, to = at[i-1], at[i]
		}
	}
	return from, to
}
