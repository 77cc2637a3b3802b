package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"timewheel"
)

// The oracle judges a finished run from what the application callbacks
// saw, independently of the repository's own checkers. Any violation
// voids the run.

// maxViolations bounds the report; the count is always exact.
const maxViolations = 20

type verdict struct {
	count   int
	details []string
}

func (v *verdict) add(format string, args ...any) {
	if v.count++; len(v.details) < maxViolations {
		v.details = append(v.details, fmt.Sprintf(format, args...))
	}
}

type proposalKey struct {
	proposer uint8
	seq      uint64
}

// checkRun applies every rule to the run's delivery logs.
func checkRun(r *run) verdict {
	var v verdict
	c, b := r.c, r.book
	n := c.spec.n

	for _, m := range c.members {
		if m.corrupt > 0 {
			v.add("node %d: %d deliveries with a broken checksum or an unknown index", m.id, m.corrupt)
		}
	}

	idOf := make(map[uint64]proposalKey)    // proposal index -> protocol identity
	idxOfOrdinal := make(map[uint64]uint64) // ordinal -> proposal index
	nodesWith := make(map[uint64]uint32)    // proposal index -> bitmap of nodes that delivered it

	for _, inc := range c.incs {
		seen := make(map[uint64]struct{}, len(inc.log))
		lastSeq := make(map[uint8]uint64)
		var lastOrd uint64
		for _, d := range inc.log {
			if _, dup := seen[d.idx]; dup {
				v.add("node %d delivered proposal %d twice", inc.node, d.idx)
				continue
			}
			seen[d.idx] = struct{}{}
			nodesWith[d.idx] |= 1 << uint(inc.node)

			order, atom := b.class[d.idx].semantics()
			if d.proposer != b.node[d.idx] || d.order != uint8(order) || d.atom != uint8(atom) {
				v.add("node %d: proposal %d arrived as p%d %d/%d, was sent as p%d %d/%d",
					inc.node, d.idx, d.proposer, d.order, d.atom, b.node[d.idx], order, atom)
			}
			key := proposalKey{d.proposer, d.seq}
			if prev, ok := idOf[d.idx]; !ok {
				idOf[d.idx] = key
			} else if prev != key {
				v.add("proposal %d is p%d#%d at node %d and p%d#%d elsewhere",
					d.idx, key.proposer, key.seq, inc.node, prev.proposer, prev.seq)
			}
			if d.ord != 0 {
				if prev, ok := idxOfOrdinal[d.ord]; !ok {
					idxOfOrdinal[d.ord] = d.idx
				} else if prev != d.idx {
					v.add("ordinal %d is proposal %d at node %d and proposal %d elsewhere", d.ord, d.idx, inc.node, prev)
				}
			}
			if order != timewheel.Unordered {
				if last, ok := lastSeq[d.proposer]; ok && d.seq <= last {
					v.add("node %d: FIFO broken for p%d: seq %d after %d", inc.node, d.proposer, d.seq, last)
				}
				lastSeq[d.proposer] = d.seq
			}
			if order == timewheel.TotalOrder {
				if d.ord == 0 || d.ord <= lastOrd {
					v.add("node %d: total-order delivery of proposal %d with ordinal %d after ordinal %d",
						inc.node, d.idx, d.ord, lastOrd)
				}
				lastOrd = max(lastOrd, d.ord)
			}
		}
	}
	checkRelativeOrder(&v, c.incs, b)

	// Agreement: what a proposer was told is delivered must be delivered
	// by every member that was in the view all the while. (A member that
	// was out, crashed or excluded, is brought up to date by the join-time
	// state transfer, which suppresses the deliveries it covers.)
	out := outIntervals(c)
	margin := int64(absenceMargin(c.spec))
	for _, cyc := range r.cycles {
		back := int64(math.MaxInt64)
		if cyc.rejoinErr == nil && cyc.rejoined > 0 {
			back = cyc.rejoined
		}
		out[cyc.victim] = append(out[cyc.victim], interval{cyc.crashStart, back})
	}
	for i := 0; i < b.capacity(); i++ {
		if b.state[i].Load() != stDelivered {
			continue
		}
		for node := 0; node < n; node++ {
			if nodesWith[uint64(i)]&(1<<uint(node)) == 0 && !wasOut(out[node], b.due[i]-margin, b.done[i]+margin) {
				v.add("proposal %d was delivered at its proposer p%d but never at node %d, a member throughout", i, b.node[i], node)
			}
		}
	}

	for _, cyc := range r.cycles {
		if cyc.installErr != nil {
			v.add("crash of node %d: %v", cyc.victim, cyc.installErr)
		}
		if cyc.rejoinErr != nil {
			v.add("restart of node %d: %v", cyc.victim, cyc.rejoinErr)
		}
	}

	// Durability: every delivery a node acknowledged to its application
	// must come back when its DataDir is reopened.
	for node, replay := range r.replayed {
		missing := 0
		for _, inc := range c.incs {
			if inc.node != node {
				continue
			}
			for _, d := range inc.log {
				if !replay[d.idx] {
					missing++
				}
			}
		}
		if missing > 0 {
			v.add("node %d: %d acknowledged deliveries missing from the replay of its DataDir", node, missing)
		}
	}
	return v
}

// absenceMargin widens a member's absence at both ends: a member is
// excluded because it had already fallen behind (and a crashed one may
// not have delivered yet what its proposer delivered a decision or two
// earlier), and a proposal delivered at its proposer just after the
// readmission may already be part of the state the member was handed.
// 12 D: 240 ms under the default Params.
func absenceMargin(sp spec) time.Duration { return 12 * sp.params().D.Std() }

type interval struct{ from, to int64 }

// outIntervals derives, from the view installations alone, when each
// member was outside the group: from the first view some other member
// installed without it until its own next view. A member that never came
// back is out until the end.
func outIntervals(c *cluster) [][]interval {
	const open = int64(-1)
	out := make([][]interval, c.spec.n)
	outSince := make([]int64, c.spec.n)
	for i := range outSince {
		outSince[i] = open
	}
	views := append([]viewEvent(nil), c.views...)
	sort.SliceStable(views, func(i, j int) bool { return views[i].at < views[j].at })
	for _, ev := range views {
		if since := outSince[ev.node]; since != open && slices.Contains(ev.members, ev.node) {
			out[ev.node] = append(out[ev.node], interval{since, ev.at})
			outSince[ev.node] = open
		}
		for id := range out {
			if id != ev.node && outSince[id] == open && !slices.Contains(ev.members, id) {
				outSince[id] = ev.at
			}
		}
	}
	for id, since := range outSince {
		if since != open {
			out[id] = append(out[id], interval{since, math.MaxInt64})
		}
	}
	return out
}

func wasOut(out []interval, from, to int64) bool {
	for _, iv := range out {
		if iv.from <= to && from <= iv.to {
			return true
		}
	}
	return false
}

// checkRelativeOrder verifies, without looking at ordinals, that any two
// delivery streams hold their common TotalOrder proposals in the same
// relative order.
func checkRelativeOrder(v *verdict, incs []*incarnation, b *book) {
	total := func(inc *incarnation) []uint64 {
		var out []uint64
		for _, d := range inc.log {
			if order, _ := b.class[d.idx].semantics(); order == timewheel.TotalOrder {
				out = append(out, d.idx)
			}
		}
		return out
	}
	streams := make([][]uint64, len(incs))
	for i, inc := range incs {
		streams[i] = total(inc)
	}
	for i := range streams {
		pos := make(map[uint64]int, len(streams[i]))
		for p, idx := range streams[i] {
			pos[idx] = p
		}
		for j := i + 1; j < len(streams); j++ {
			last := -1
			for _, idx := range streams[j] {
				p, ok := pos[idx]
				if !ok {
					continue
				}
				if p < last {
					v.add("nodes %d and %d deliver proposal %d in different relative order", incs[i].node, incs[j].node, idx)
					break
				}
				last = p
			}
		}
	}
}

// replayDataDirs reopens every member's DataDir the way a restarted
// process would and records what recovery hands back to the application.
func (r *run) replayDataDirs() error {
	hub := timewheel.NewMemoryHub(timewheel.HubConfig{})
	defer hub.Close()
	for _, m := range r.c.members {
		seen := make(map[uint64]bool)
		began := time.Now()
		node, err := timewheel.NewNode(timewheel.Config{
			ID: m.id, ClusterSize: r.c.spec.n, Transport: hub.Transport(m.id), Params: r.c.spec.publicParams(),
			DataDir: m.dataDir, Fsync: r.c.spec.fsync,
			OnDeliver: func(d timewheel.Delivery) {
				if idx, ok := parsePayload(d.Payload); ok {
					seen[idx] = true
				}
			},
		})
		if err != nil {
			return fmt.Errorf("reopen DataDir of node %d: %w", m.id, err)
		}
		r.recoverMs = append(r.recoverMs, float64(time.Since(began))/float64(time.Millisecond))
		rep := node.Recovery()
		node.Stop()
		if len(rep.Discarded) > 0 {
			return fmt.Errorf("reopen DataDir of node %d: recovery discarded data: %v", m.id, rep.Discarded)
		}
		r.replayed = append(r.replayed, seen)
	}
	return nil
}
