// Package core is the timewheel process the paper's Figure 1 stacks
// once: the group creator (member) over the atomic broadcast, plus the
// binding of both to a durable store. It holds everything that does not
// depend on where the process runs. An environment — the real-time node
// in the module root, or the simulated node in internal/node — supplies
// the clock, the timers and the network as a member.Env, drives the
// machine from its own event loop, and attaches its observation and
// record keeping as hooks.
package core

import (
	"timewheel/internal/adapt"
	"timewheel/internal/broadcast"
	"timewheel/internal/durable"
	"timewheel/internal/fdetect"
	"timewheel/internal/member"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// Config assembles one process.
type Config struct {
	ID     model.ProcessID
	Params model.Params
	// Env supplies the clock, the timers and the network.
	Env member.Env
	// Broadcast configures the broadcast layer. OnDeliver, Snapshot and
	// Install are the application's. With a Store, the core logs each
	// delivery before OnDeliver sees it, snapshots after every
	// SnapshotEvery deliveries and after each full-transfer Install, and
	// sets OnLineage and ReplaySince itself.
	Broadcast broadcast.Config
	// Member configures the group creator. With a Store,
	// Hooks.ViewChange runs after the core has logged the view.
	Member member.Config
	// Store is the process's durable store; nil keeps it volatile.
	Store *durable.Store
	// SnapshotEvery is the snapshot cadence in logged deliveries
	// (only meaningful with a Store).
	SnapshotEvery int
}

// Core is one assembled process. Drive it from a single goroutine.
type Core struct {
	bc      *broadcast.Broadcast
	machine *member.Machine

	store     *durable.Store
	snapshot  func() []byte
	snapEvery int
	sinceSnap int
}

// New builds the broadcast layer and the group creator over cfg.Env.
func New(cfg Config) *Core {
	c := &Core{store: cfg.Store, snapshot: cfg.Broadcast.Snapshot, snapEvery: cfg.SnapshotEvery}
	bcfg := cfg.Broadcast
	if c.store != nil {
		deliver := bcfg.OnDeliver
		bcfg.OnDeliver = func(d broadcast.Delivery) {
			c.store.AppendUpdate(durable.UpdateRecord{ //nolint:errcheck // in-model omission
				ID: d.ID, Ordinal: d.Ordinal, Sem: d.Sem, SendTS: d.SendTS, Payload: d.Payload,
			})
			if deliver != nil {
				deliver(d)
			}
			if c.sinceSnap++; c.sinceSnap >= c.snapEvery {
				c.WriteSnapshot()
			}
		}
		if install := bcfg.Install; install != nil {
			bcfg.Install = func(b []byte) {
				install(b)
				// A full transfer rebases the application state: snapshot
				// it with the matching delivery image so the log restarts
				// clean behind it.
				c.WriteSnapshot()
			}
		}
		bcfg.OnLineage = func(lin model.GroupSeq) {
			// A lineage boundary restarts the ordinal space: mark it in
			// the log (recovery then knows post-boundary ordinals are
			// incomparable with the snapshot's) and drop the replay tail.
			c.store.AppendView(durable.ViewRecord{Lineage: lin, Ordinal: oal.None}) //nolint:errcheck
			c.store.ResetTail(0)
		}
		bcfg.ReplaySince = c.replaySince
	}
	c.bc = broadcast.New(cfg.ID, cfg.Params, bcfg)

	mcfg := cfg.Member
	if c.store != nil {
		view := mcfg.Hooks.ViewChange
		mcfg.Hooks.ViewChange = func(g model.Group, at model.Time) {
			// Membership descriptors occupy ordinals; logging the view
			// with its ordinal lets recovery count it toward contiguous
			// coverage.
			c.store.AppendView(durable.ViewRecord{ //nolint:errcheck
				Seq:     g.Seq,
				Members: append([]model.ProcessID(nil), g.Members...),
				Ordinal: c.bc.MembershipOrdinal(g.Seq),
				Lineage: c.bc.Lineage(),
			})
			if view != nil {
				view(g, at)
			}
		}
	}
	c.machine = member.New(cfg.ID, cfg.Params, mcfg, cfg.Env, c.bc)
	return c
}

// Broadcast returns the process's broadcast layer.
func (c *Core) Broadcast() *broadcast.Broadcast { return c.bc }

// Machine returns the process's group creator.
func (c *Core) Machine() *member.Machine { return c.machine }

// View returns the process's current group and whether it is a member
// of it (false while it joins).
func (c *Core) View() (model.Group, bool) {
	return c.machine.Group(), c.machine.HaveGroup() && c.machine.State() != member.StateJoin
}

// EnableAdaptive turns on per-peer adaptive suspicion deadlines, fed
// by est.
func (c *Core) EnableAdaptive(est *adapt.DelayEstimator, cfg fdetect.AdaptiveConfig) {
	c.machine.Detector().EnableAdaptive(delayAdapter{est}, cfg)
}

// Restore rebuilds the application and delivery state from what the
// durable store recovered, before the machine starts: install receives
// the snapshot as the base, replay each logged update on top, and the
// broadcast layer is seeded so nothing recovered is ever delivered
// again — and so the join message advertises the recovered coverage
// for a delta rejoin. Either callback may be nil.
func (c *Core) Restore(rec *durable.Recovery, install func([]byte), replay func(broadcast.Delivery)) {
	if rec == nil || rec.Empty() {
		return
	}
	if rec.HaveSnapshot && install != nil {
		install(rec.AppState)
	}
	img := broadcast.Image{
		Lineage:   rec.Lineage(),
		Covered:   rec.AdvertisedCoverage(),
		SettledTS: rec.Meta.SettledTS,
	}
	for _, x := range rec.Meta.Extra {
		img.Extra = append(img.Extra, broadcast.ImageExtra{ID: x.ID, Ordinal: x.Ordinal})
	}
	for _, u := range rec.Updates {
		if replay != nil {
			replay(broadcast.Delivery{ID: u.ID, Ordinal: u.Ordinal, Payload: u.Payload, Sem: u.Sem, SendTS: u.SendTS})
		}
		img.Extra = append(img.Extra, broadcast.ImageExtra{ID: u.ID, Ordinal: u.Ordinal})
	}
	for _, f := range rec.Meta.FIFO {
		img.FIFO = append(img.FIFO, wire.FIFOEntry{Proposer: f.Proposer, Seq: f.Next})
	}
	c.bc.SeedRecovered(img)
}

// WriteSnapshot persists the application state with the broadcast
// layer's matching delivery image and prunes the log behind it, and
// restarts the snapshot cadence. Without a store or a Snapshot hook it
// only restarts the cadence: a log-only process has no state a snapshot
// could capture, so its log must keep every delivery.
func (c *Core) WriteSnapshot() {
	c.sinceSnap = 0
	if c.store == nil || c.snapshot == nil {
		return
	}
	img := c.bc.SnapshotImage()
	meta := durable.SnapshotMeta{Lineage: img.Lineage, Covered: img.Covered, SettledTS: img.SettledTS}
	for _, x := range img.Extra {
		meta.Extra = append(meta.Extra, durable.ExtraEntry{ID: x.ID, Ordinal: x.Ordinal})
	}
	for _, f := range img.FIFO {
		meta.FIFO = append(meta.FIFO, durable.FIFOCursor{Proposer: f.Proposer, Next: f.Seq})
	}
	c.store.WriteSnapshot(meta, c.snapshot()) //nolint:errcheck // best-effort; the log retains the tail
}

// replaySince serves a rejoin delta from the durable log.
func (c *Core) replaySince(since oal.Ordinal) ([]wire.ReplayEntry, bool) {
	recs, ok := c.store.ReplaySince(since)
	if !ok {
		return nil, false
	}
	out := make([]wire.ReplayEntry, 0, len(recs))
	for _, u := range recs {
		out = append(out, wire.ReplayEntry{
			ID: u.ID, Ordinal: u.Ordinal, Sem: u.Sem, SendTS: u.SendTS, Payload: u.Payload,
		})
	}
	return out, true
}

// delayAdapter lifts adapt.DelayEstimator (time.Duration, int peers) to
// fdetect.DelayEstimator (model units, ProcessID peers).
type delayAdapter struct{ est *adapt.DelayEstimator }

func (a delayAdapter) Observe(peer model.ProcessID, d model.Duration) {
	a.est.Observe(int(peer), d.Std())
}

func (a delayAdapter) Bound(peer model.ProcessID) (model.Duration, bool) {
	b, ok := a.est.Bound(int(peer))
	return model.FromStd(b), ok
}
