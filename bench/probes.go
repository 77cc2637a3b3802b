package main

import (
	"fmt"
	"time"

	"timewheel/internal/broadcast"
	"timewheel/internal/durable"
	"timewheel/internal/engine"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Probes time single calls into one layer's exported functions, after
// the nodes have stopped, at the operating point the run measured. They
// say what a call costs; the counts say how many calls a delivery needs.

// timeCalls runs f n times and returns the median call time in ns.
func timeCalls(n int, f func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t := time.Now()
		f()
		v[i] = float64(time.Since(t))
	}
	return median(v)
}

// wireReplay is what replaying the sampled datagrams through the codec
// yields.
type wireReplay struct {
	datagrams, frames int
	byKind            map[wire.Kind]int
	decodeNsPerFrame  float64
	encodeNsPerFrame  float64
}

// replayWire splits and decodes every sampled datagram the way the
// node's receiver does, then re-encodes what it decoded, timing both.
func replayWire(samples [][]byte) (wireReplay, error) {
	out := wireReplay{datagrams: len(samples), byKind: make(map[wire.Kind]int)}
	var frames [][]byte
	collect := func(f []byte) { frames = append(frames, f) }
	for _, d := range samples {
		var err error
		switch {
		case wire.IsGrouped(d):
			err = wire.SplitGrouped(d, collect)
		case wire.IsCoalesced(d):
			err = wire.SplitCoalesced(d, collect)
		default:
			collect(d)
		}
		if err != nil {
			return out, fmt.Errorf("sampled datagram does not split: %w", err)
		}
	}
	out.frames = len(frames)
	if len(frames) == 0 {
		return out, nil
	}
	msgs := make([]wire.Message, len(frames))
	const rounds = 21 // a round is a few ms; the median shrugs off a GC cycle or two
	per := make([]float64, rounds)
	for r := range per {
		t := time.Now()
		for i, f := range frames {
			m, err := wire.Decode(f)
			if err != nil {
				return out, fmt.Errorf("sampled frame does not decode: %w", err)
			}
			msgs[i] = m
		}
		per[r] = float64(time.Since(t)) / float64(len(frames))
	}
	out.decodeNsPerFrame = median(per)
	for _, m := range msgs {
		out.byKind[m.Kind()]++
	}
	buf := make([]byte, 0, 64<<10)
	for r := range per {
		t := time.Now()
		for _, m := range msgs {
			buf = wire.AppendEncode(buf[:0], m)
		}
		per[r] = float64(time.Since(t)) / float64(len(msgs))
	}
	out.encodeNsPerFrame = median(per)
	return out, nil
}

// probeEngine measures one Post -> handler round trip of the event loop
// every node runs on.
func probeEngine() float64 {
	done := make(chan struct{}, 1)
	loop := engine.NewEventLoop(func(ev engine.Event) { ev.Cmd() }, 4096)
	defer loop.Stop()
	signal := func() { done <- struct{}{} }
	return timeCalls(5000, func() {
		loop.Post(engine.Event{Type: engine.EvCommand, Cmd: signal})
		<-done
	})
}

// orderingProbe is the cost of the ordering layer's per-event calls at a
// given in-flight depth, in µs.
type orderingProbe struct {
	depth                                                       float64 // mean oal length while probing
	onProposalUs, adoptDecisionUs, buildDecisionUs, mergeAcksUs float64
}

// probeOrdering drives a standalone broadcast trio on virtual time the
// way member.Machine does in failure-free operation: proposals fan out,
// the decider role rotates, everyone else adopts. perDecision proposals
// arrive between decisions, which holds the pending set near the depth
// the live run measured.
func probeOrdering(params model.Params, depth int) orderingProbe {
	ids := []model.ProcessID{0, 1, 2}
	params.N = len(ids)
	group := model.NewGroup(1, ids)
	members := make([]*broadcast.Broadcast, len(ids))
	for i, id := range ids {
		members[i] = broadcast.New(id, params, broadcast.Config{OnDeliver: func(broadcast.Delivery) {}})
		members[i].SetGroup(group)
	}
	// A Strong proposal stays in the oal for about three decisions
	// (ordered, majority-acknowledged, stable everywhere).
	perDecision := max(1, depth/3)
	sem := oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}
	payload := make([]byte, 64)
	now := model.Time(1_000_000)

	var onProposal, adopt, build, merge, depths []float64
	const rounds = 60
	for round := 0; round < rounds; round++ {
		measured := round >= rounds/3 // let the pending set fill first
		for k := 0; k < perDecision; k++ {
			now += 50
			from := (round + k) % len(ids)
			p := members[from].Propose(now, payload, sem)
			for i, m := range members {
				if i == from {
					continue
				}
				t := time.Now()
				m.OnProposal(now, p)
				if measured {
					onProposal = append(onProposal, float64(time.Since(t)))
				}
			}
		}
		now = now.Add(params.D)
		decider := round % len(ids)
		t := time.Now()
		dec, _ := members[decider].BuildDecision(now, group, ids)
		if measured {
			build = append(build, float64(time.Since(t)))
		}
		// Each member adopts its own decoded copy, as off the wire: a
		// delta-encoded decision is resolved in place.
		frame := wire.Encode(dec)
		for i, m := range members {
			if i == decider {
				continue
			}
			msg, err := wire.Decode(frame)
			if err != nil {
				panic(fmt.Sprintf("ordering probe: decision does not decode: %v", err))
			}
			t = time.Now()
			m.AdoptDecision(now, msg.(*wire.Decision))
			if measured {
				adopt = append(adopt, float64(time.Since(t)))
			}
		}
		if measured {
			mine, theirs := members[decider].CurrentView(), members[(decider+1)%len(ids)].CurrentView()
			depths = append(depths, float64(mine.Len()))
			t = time.Now()
			mine.MergeAcks(theirs)
			merge = append(merge, float64(time.Since(t)))
		}
	}
	us := func(v []float64) float64 { return median(v) / 1000 }
	return orderingProbe{
		depth:        mean(depths),
		onProposalUs: us(onProposal), adoptDecisionUs: us(adopt),
		buildDecisionUs: us(build), mergeAcksUs: us(merge),
	}
}

// probeDurableAppend measures one 1 KiB AppendUpdate under the "always"
// fsync policy, in µs.
func probeDurableAppend(dir string) (float64, error) {
	store, _, err := durable.Open(durable.Options{Dir: dir, Policy: durable.FsyncAlways})
	if err != nil {
		return 0, fmt.Errorf("durable probe: %w", err)
	}
	defer store.Close()
	payload := make([]byte, 1024)
	var seq uint64
	var appendErr error
	ns := timeCalls(100, func() {
		seq++
		err := store.AppendUpdate(durable.UpdateRecord{
			ID:      oal.ProposalID{Proposer: 0, Seq: seq},
			Ordinal: oal.Ordinal(seq),
			Sem:     oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity},
			SendTS:  model.Time(seq),
			Payload: payload,
		})
		if err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return 0, fmt.Errorf("durable probe: %w", appendErr)
	}
	return ns / 1000, nil
}
