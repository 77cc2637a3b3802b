package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"timewheel/internal/wire"
)

// span is one traced interval. Spans of one proposal share Idx; spans of
// one crash cycle share Cycle. Times are µs since the run's epoch.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent,omitempty"`
	Name      string  `json:"name"`
	Node      int     `json:"node"`
	Idx       int64   `json:"idx"` // proposal index; -1 when the span belongs to no proposal
	Class     string  `json:"class,omitempty"`
	Cycle     int     `json:"cycle,omitempty"` // 1-based crash cycle
	Start     float64 `json:"start_us"`
	End       float64 `json:"end_us"`
	Bytes     int     `json:"bytes,omitempty"`
	Datagrams int     `json:"datagrams,omitempty"`
}

func (s span) duration() float64 { return s.End - s.Start }

// traceFile is what the traced pass writes when the run ends: the counts
// taken at the layer boundaries over the measured window, and the
// sampled spans. The per-layer table is a pure function of it.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Sampling int                `json:"span_sampling"`
	Note     string             `json:"note"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

const traceNote = "Frames are coalesced below the transport boundary, so send/recv spans carry a node, " +
	"byte and datagram count but no proposal id. Proposal and transport spans are sampled 1 in span_sampling; counts are exact."

func us(ns int64) float64 { return float64(ns) / 1000 }

// buildTrace assembles the trace of a finished traced run.
func buildTrace(r *run, o *outcome, probeDir string) (*traceFile, error) {
	c, b := r.c, r.book
	tf := &traceFile{
		Workload: c.spec.name, Seed: r.cfg.seed, Sampling: sampleEvery, Note: traceNote,
		Counts: make(map[string]float64),
	}
	nextID := 0
	add := func(s span) int {
		nextID++
		s.ID = nextID
		tf.Spans = append(tf.Spans, s)
		return nextID
	}

	// Proposal spans: every sampleEvery-th counted proposal.
	type arrival struct {
		node int
		at   int64
	}
	sampled := make(map[uint64][]arrival)
	for _, idx := range o.counted {
		if idx%sampleEvery == 0 {
			sampled[idx] = nil
		}
	}
	for _, inc := range c.incs {
		for _, d := range inc.log {
			if got, ok := sampled[d.idx]; ok {
				sampled[d.idx] = append(got, arrival{inc.node, d.at})
			}
		}
	}
	for _, idx := range o.counted {
		arrivals, ok := sampled[idx]
		if !ok {
			continue
		}
		node, cl := int(b.node[idx]), classNames[b.class[idx]]
		commit := add(span{Name: "commit", Node: node, Idx: int64(idx), Class: cl, Start: us(b.due[idx]), End: us(b.done[idx])})
		add(span{Parent: commit, Name: "propose.call", Node: node, Idx: int64(idx), Start: us(b.entered[idx]), End: us(b.returned[idx])})
		last := b.done[idx]
		for _, a := range arrivals {
			add(span{Parent: commit, Name: "deliver", Node: a.node, Idx: int64(idx), Start: us(b.returned[idx]), End: us(a.at)})
			last = max(last, a.at)
		}
		add(span{Name: "spread", Node: node, Idx: int64(idx), Class: cl, Start: us(b.done[idx]), End: us(last)})
	}

	// Transport spans and counts.
	var samples [][]byte
	for _, m := range c.members {
		t := m.tap
		for _, s := range t.spans {
			name := "send"
			if s.recv {
				name = "recv"
			}
			add(span{Name: name, Node: m.id, Idx: -1, Start: us(s.start), End: us(s.end), Bytes: int(s.bytes), Datagrams: int(s.datagrams)})
		}
		samples = append(samples, t.samples...)
		tf.Counts["transport.send_calls"] += float64(t.sendCalls.Load())
		tf.Counts["transport.datagrams"] += float64(t.sendDatagrams.Load())
		tf.Counts["transport.bytes"] += float64(t.sendBytes.Load())
		tf.Counts["transport.send_ns"] += float64(t.sendNs.Load())
		tf.Counts["transport.send_errors"] += float64(t.sendErrs.Load())
		tf.Counts["transport.recv_datagrams"] += float64(t.recvDatagrams.Load())
		tf.Counts["node.recv_ns"] += float64(t.recvNs.Load())
	}

	// Crash-cycle spans.
	for i, cyc := range r.cycles {
		if cyc.installErr != nil || cyc.rejoinErr != nil {
			continue
		}
		k := i + 1
		root := add(span{Name: "crash_cycle", Node: cyc.victim, Idx: -1, Cycle: k, Start: us(cyc.crashStart), End: us(cyc.rejoined)})
		add(span{Parent: root, Name: "crash", Node: cyc.victim, Idx: -1, Cycle: k, Start: us(cyc.crashStart), End: us(cyc.crashEnd)})
		add(span{Parent: root, Name: "view_install", Node: cyc.victim, Idx: -1, Cycle: k, Start: us(cyc.crashStart), End: us(cyc.viewInstalled)})
		add(span{Parent: root, Name: "restart", Node: cyc.victim, Idx: -1, Cycle: k, Start: us(cyc.restartStart), End: us(cyc.restartEnd)})
		add(span{Parent: root, Name: "rejoin", Node: cyc.victim, Idx: -1, Cycle: k, Start: us(cyc.restartEnd), End: us(cyc.rejoined)})
		from, to := r.longestSilence(cyc)
		add(span{Parent: root, Name: "outage", Node: cyc.victim, Idx: -1, Cycle: k, Start: us(from), End: us(to)})
	}

	// Counts at the node boundary (public Node API), summed over nodes.
	cnt := tf.Counts
	cnt["window_s"] = o.windowS
	cnt["nodes"] = float64(c.spec.n)
	cnt["attempted"] = float64(o.attempted)
	cnt["failed"] = float64(o.failed())
	cnt["delivered"] = float64(o.delivered())
	cnt["gen.orphaned"] = float64(o.orphaned)
	cnt["cpu_us"] = r.cpuUs
	cnt["runtime.mallocs"] = float64(r.mallocs)
	cnt["runtime.malloc_bytes"] = float64(r.mallocBytes)
	st := c.stats
	cnt["node.handler_events"] = st[sHandlerCount]
	cnt["node.handler_ns"] = st[sHandlerNs]
	cnt["node.timer_late_events"] = st[sTimerLateCount]
	cnt["node.timer_late_ns"] = st[sTimerLateNs]
	cnt["node.queue_drops"] = st[sQueueDrops]
	cnt["node.recv_drops"] = st[sRecvDrops]
	cnt["node.send_errors"] = st[sSendErrors]
	cnt["member.decisions"] = st[sDecisionsSent]
	cnt["member.deliveries"] = st[sDelivered]
	cnt["member.wrong_suspicions"] = st[sWrongSuspicions]
	cnt["member.single_elections"] = st[sSingleElections]
	cnt["member.reconfig_elections"] = st[sReconfigElections]
	cnt["member.elections_timed"] = st[sElectionCount]
	cnt["member.election_ns"] = st[sElectionNs]
	cnt["member.unforced_view_changes"] = float64(r.unforcedViewChanges())
	cnt["broadcast.proposed"] = st[sProposed]
	cnt["broadcast.delivered_fast"] = st[sDeliveredFast]
	cnt["broadcast.purged"] = st[sPurged]
	cnt["broadcast.retransmits"] = st[sRetransmits]
	cnt["durable.fsyncs"] = st[sFsyncCount]
	cnt["durable.fsync_ns"] = st[sFsyncNs]

	// Statistics over every counted proposal, not just the sampled ones.
	all := sortedCopy(o.all)
	cnt["node.commit_p99_ms"] = quantile(all, 0.99)
	cnt["node.commit_p999_ms"] = quantile(all, 0.999)
	var latencySum float64
	for _, ms := range o.all {
		latencySum += ms
	}
	cnt["broadcast.inflight_mean"] = latencySum / 1000 / o.windowS // Little's law
	if c.spec.rate > 0 {
		late := make([]float64, 0, len(o.counted))
		for _, idx := range o.counted {
			late = append(late, us(b.entered[idx]-b.due[idx]))
		}
		cnt["gen.late_p99_us"] = quantile(sortedCopy(late), 0.99)
	}

	// Probes.
	replay, err := replayWire(samples)
	if err != nil {
		return nil, err
	}
	cnt["wire.sampled_datagrams"] = float64(replay.datagrams)
	cnt["wire.sampled_frames"] = float64(replay.frames)
	cnt["wire.sampled_decisions"] = float64(replay.byKind[wire.KindDecision])
	cnt["wire.sampled_repair_frames"] = float64(replay.byKind[wire.KindNack] + replay.byKind[wire.KindOALReq] +
		replay.byKind[wire.KindOALFull] + replay.byKind[wire.KindState])
	cnt["wire.decode_ns_per_frame"] = replay.decodeNsPerFrame
	cnt["wire.encode_ns_per_frame"] = replay.encodeNsPerFrame
	cnt["engine.post_handle_ns"] = probeEngine()
	op := probeOrdering(c.spec.params(), int(cnt["broadcast.inflight_mean"]+0.5))
	cnt["broadcast.probe_depth"] = op.depth
	cnt["broadcast.on_proposal_us"] = op.onProposalUs
	cnt["broadcast.adopt_decision_us"] = op.adoptDecisionUs
	cnt["broadcast.build_decision_us"] = op.buildDecisionUs
	cnt["oal.merge_acks_us"] = op.mergeAcksUs
	if c.spec.durable {
		if cnt["durable.append_us"], err = probeDurableAppend(probeDir); err != nil {
			return nil, err
		}
		var onDisk int64
		for _, m := range c.members {
			onDisk += dirSize(m.dataDir)
		}
		cnt["durable.bytes_on_disk"] = float64(onDisk)
		var acknowledged, recovered float64
		for node, replayed := range r.replayed {
			for _, inc := range c.incs {
				if inc.node != node {
					continue
				}
				for _, d := range inc.log {
					acknowledged++
					if replayed[d.idx] {
						recovered++
					}
				}
			}
		}
		cnt["durable.acknowledged"] = acknowledged
		cnt["durable.recovered"] = recovered
		cnt["durable.recover_ms"] = mean(r.recoverMs)
	}
	return tf, nil
}

// unforcedViewChanges counts view installations after the group formed
// (warm-up and drain included, a spurious exclusion there disturbs the
// window just the same) that no injected fault explains: each crash
// cycle accounts for the N-1 view at the survivors and the N view at
// everyone.
func (r *run) unforcedViewChanges() int {
	n := r.c.spec.n
	seen := 0
	for _, v := range r.c.views {
		if v.at > r.c.formedAt {
			seen++
		}
	}
	return max(0, seen-len(r.cycles)*(2*(n-1)+1))
}

func dirSize(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (children are clipped to the parent and may overlap
// each other).
func selfTime(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, ch := range children {
		a, b := max(ch.Start, parent.Start), min(ch.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, parent.Start
	for _, x := range ivs {
		if x.b <= end {
			continue
		}
		covered += x.b - max(x.a, end)
		end = x.b
	}
	return parent.duration() - covered
}

// layerTable recomputes every per-layer metric from a trace file.
func layerTable(tf *traceFile) map[string]float64 {
	cnt := tf.Counts
	per := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	delivered := cnt["delivered"]
	t := map[string]float64{
		"cpu_us_per_delivered": per(cnt["cpu_us"], delivered),

		"failed_share": per(cnt["failed"], cnt["attempted"]),
		"gen.orphaned": cnt["gen.orphaned"],

		"transport.datagrams_per_delivered":  per(cnt["transport.datagrams"], delivered),
		"transport.bytes_per_delivered":      per(cnt["transport.bytes"], delivered),
		"transport.send_calls_per_delivered": per(cnt["transport.send_calls"], delivered),
		"transport.send_us_per_delivered":    per(cnt["transport.send_ns"]/1000, delivered),
		"transport.send_errors":              cnt["transport.send_errors"] + cnt["node.send_errors"],

		"wire.frames_per_datagram": per(cnt["wire.sampled_frames"], cnt["wire.sampled_datagrams"]),
		"wire.decode_ns_per_frame": cnt["wire.decode_ns_per_frame"],
		"wire.encode_ns_per_frame": cnt["wire.encode_ns_per_frame"],

		"node.recv_us_per_delivered":         per(cnt["node.recv_ns"]/1000, delivered),
		"node.handler_busy_us_per_delivered": per(cnt["node.handler_ns"]/1000, delivered),
		"node.events_per_delivered":          per(cnt["node.handler_events"], delivered),
		"node.handler_busy_share":            per(cnt["node.handler_ns"]/1e9, cnt["window_s"]*cnt["nodes"]),
		"node.timer_late_mean_us":            per(cnt["node.timer_late_ns"]/1000, cnt["node.timer_late_events"]),
		"node.queue_drops":                   cnt["node.queue_drops"],
		"node.recv_drops":                    cnt["node.recv_drops"],
		"node.commit_p99_ms":                 cnt["node.commit_p99_ms"],
		"node.commit_p999_ms":                cnt["node.commit_p999_ms"],

		"engine.post_handle_ns": cnt["engine.post_handle_ns"],

		"runtime.allocs_per_delivered":      per(cnt["runtime.mallocs"], delivered),
		"runtime.alloc_bytes_per_delivered": per(cnt["runtime.malloc_bytes"], delivered),

		"member.decisions_per_s":        per(cnt["member.decisions"], cnt["window_s"]),
		"member.delivered_per_decision": per(delivered, cnt["member.decisions"]),
		"member.wrong_suspicions":       cnt["member.wrong_suspicions"],
		"member.unforced_view_changes":  cnt["member.unforced_view_changes"],
		"member.single_elections":       cnt["member.single_elections"],
		"member.reconfig_elections":     cnt["member.reconfig_elections"],
		"member.election_mean_ms":       per(cnt["member.election_ns"]/1e6, cnt["member.elections_timed"]),

		"broadcast.inflight_mean":             cnt["broadcast.inflight_mean"],
		"broadcast.retransmits_per_delivered": per(cnt["broadcast.retransmits"], delivered),
		"broadcast.purged_share":              per(cnt["broadcast.purged"], cnt["broadcast.proposed"]*cnt["nodes"]),
		"broadcast.fast_share":                per(cnt["broadcast.delivered_fast"], cnt["member.deliveries"]),
		"broadcast.on_proposal_us":            cnt["broadcast.on_proposal_us"],
		"broadcast.adopt_decision_us":         cnt["broadcast.adopt_decision_us"],
		"broadcast.build_decision_us":         cnt["broadcast.build_decision_us"],
		"oal.merge_acks_us":                   cnt["oal.merge_acks_us"],

		"durable.fsyncs_per_delivered": per(cnt["durable.fsyncs"], delivered),
		"durable.fsync_mean_us":        per(cnt["durable.fsync_ns"]/1000, cnt["durable.fsyncs"]),
		"durable.append_us":            cnt["durable.append_us"],
		"durable.bytes_per_delivered":  per(cnt["durable.bytes_on_disk"], delivered),
		"durable.recover_ms":           cnt["durable.recover_ms"],
		"durable.recovered_share":      per(cnt["durable.recovered"], cnt["durable.acknowledged"]),

		"gen.late_p99_us": cnt["gen.late_p99_us"],
	}
	// The datagram sample is one received datagram in sampleEvery: scale
	// its frame mix up to all received datagrams.
	framesReceived := t["wire.frames_per_datagram"] * cnt["transport.recv_datagrams"]
	kindShare := func(kind string) float64 { return per(cnt[kind], cnt["wire.sampled_frames"]) }
	t["wire.decisions_per_delivered"] = per(framesReceived*kindShare("wire.sampled_decisions"), delivered)
	t["wire.repair_frames_per_delivered"] = per(framesReceived*kindShare("wire.sampled_repair_frames"), delivered)
	t["wire.decode_us_per_delivered"] = per(framesReceived*cnt["wire.decode_ns_per_frame"]/1000, delivered)

	// Span-derived metrics.
	byName := make(map[string][]float64)
	byClass := make(map[string][]float64)
	for _, s := range tf.Spans {
		switch s.Name {
		case "commit":
			byClass[s.Class] = append(byClass[s.Class], s.duration()/1000)
		case "propose.call":
			byName[s.Name] = append(byName[s.Name], s.duration())
		case "spread", "view_install", "rejoin", "outage":
			byName[s.Name] = append(byName[s.Name], s.duration()/1000)
		}
	}
	wait := sortedCopy(byName["propose.call"])
	t["node.propose_wait_p50_us"] = quantile(wait, 0.50)
	t["node.propose_wait_p99_us"] = quantile(wait, 0.99)
	t["broadcast.spread_p50_ms"] = median(byName["spread"])
	for _, cl := range classNames {
		t["broadcast.commit_p50_ms."+cl] = median(byClass[cl])
	}
	t["view_install_p50_ms"] = median(byName["view_install"])
	t["rejoin_p50_ms"] = median(byName["rejoin"])
	t["outage_p50_ms"] = median(byName["outage"])
	return t
}

func writeTrace(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) (*traceFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tf, nil
}
