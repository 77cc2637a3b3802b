package member

import (
	"bytes"
	"testing"

	"timewheel/internal/broadcast"
	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// historyDecision crafts a decision admitting `joiner` into a group that
// has prior history (the log starts above ordinal 1), so the joiner needs
// a state transfer.
func historyDecision(now model.Time, from, joiner model.ProcessID) *wire.Decision {
	g1 := model.NewGroup(1, []model.ProcessID{0, 1, 2, 3})
	g2 := model.NewGroup(2, []model.ProcessID{0, 1, 2, 3, joiner})
	l := oal.NewList()
	l.AppendMembership(g1)
	l.AppendUpdate(oal.ProposalID{Proposer: 0, Seq: 1},
		oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity}, now-100, 0, 0)
	l.AppendMembership(g2)
	return &wire.Decision{
		Header: wire.Header{From: from, SendTS: now},
		Group:  g2,
		OAL:    *l,
		Alive:  g2.Members,
	}
}

// stateRig is a joiner whose Install hook records what was installed.
type stateRig struct {
	env       *fakeEnv
	m         *Machine
	p         model.Params
	installed [][]byte
}

func newStateRig(self model.ProcessID) *stateRig {
	r := &stateRig{env: newFakeEnv(), p: model.DefaultParams(5)}
	bc := broadcast.New(self, r.p, broadcast.Config{
		Install: func(b []byte) { r.installed = append(r.installed, bytes.Clone(b)) },
	})
	r.m = New(self, r.p, Config{}, r.env, bc)
	r.m.Start()
	return r
}

func (r *stateRig) joinsSent() uint64 { return r.m.Stats().JoinsSent }

// TestAdmissionDecisionBeforeStateTransfer covers the race the decider
// cannot prevent: its admission decision (a broadcast) overtakes the
// State unicast. The joiner must keep asking for the transfer and apply
// it when it finally arrives, even though it already holds a group and a
// non-empty log.
func TestAdmissionDecisionBeforeStateTransfer(t *testing.T) {
	r := newStateRig(4)
	dec := historyDecision(r.env.now, 0, 4)
	r.m.OnMessage(dec)
	if r.m.State() != StateFailureFree {
		t.Fatalf("state after admission: %v", r.m.State())
	}
	if len(r.installed) != 0 {
		t.Fatalf("no State received yet, but Install ran: %q", r.installed)
	}

	// The joiner's own slot re-advertises it so the decider resends.
	before := r.joinsSent()
	r.env.now = r.p.NextSlotOf(4, r.env.now)
	r.m.OnTimer(TimerSlot)
	if r.joinsSent() != before+1 {
		t.Fatalf("admitted-but-stateless member did not re-send join")
	}
	if got := r.env.lastSent(); got.Kind() != wire.KindJoin {
		t.Fatalf("sent %v, want join", got.Kind())
	}

	// The late State must be applied despite state=FF and a non-empty log.
	r.m.OnMessage(&wire.State{
		Header:   wire.Header{From: 0, SendTS: r.env.now},
		GroupSeq: 2,
		AppState: []byte("snapshot"),
	})
	if len(r.installed) != 1 || string(r.installed[0]) != "snapshot" {
		t.Fatalf("installed: %q", r.installed)
	}

	// Debt paid: the next slot sends no further joins.
	before = r.joinsSent()
	r.env.now = r.p.NextSlotOf(4, r.env.now)
	r.m.OnTimer(TimerSlot)
	if r.joinsSent() != before {
		t.Fatalf("join sent after state transfer completed")
	}
}

// TestAdmissionStateBeforeDecision is the benign order: the State arrives
// while still joining, so admission creates no transfer debt.
func TestAdmissionStateBeforeDecision(t *testing.T) {
	r := newStateRig(4)
	r.m.OnMessage(&wire.State{
		Header:   wire.Header{From: 0, SendTS: r.env.now},
		GroupSeq: 2,
		AppState: []byte("snapshot"),
	})
	if len(r.installed) != 1 {
		t.Fatalf("join-state State not applied")
	}
	r.m.OnMessage(historyDecision(r.env.now, 0, 4))
	if r.m.State() != StateFailureFree {
		t.Fatalf("state: %v", r.m.State())
	}
	before := r.joinsSent()
	r.env.now = r.p.NextSlotOf(4, r.env.now)
	r.m.OnTimer(TimerSlot)
	if r.joinsSent() != before {
		t.Fatalf("join sent although the transfer already arrived")
	}
}

// TestStaleStateTransferRejected: once a member, a State predating the
// current group (a delayed duplicate from an earlier admission attempt)
// must not clobber the log.
func TestStaleStateTransferRejected(t *testing.T) {
	r := newStateRig(4)
	r.m.OnMessage(historyDecision(r.env.now, 0, 4)) // needState now set
	r.m.OnMessage(&wire.State{
		Header:   wire.Header{From: 0, SendTS: r.env.now},
		GroupSeq: 1, // older than the admitted group (seq 2)
		AppState: []byte("stale"),
	})
	if len(r.installed) != 0 {
		t.Fatalf("stale State applied: %q", r.installed)
	}
	// The current-group State still lands.
	r.m.OnMessage(&wire.State{
		Header:   wire.Header{From: 0, SendTS: r.env.now},
		GroupSeq: 2,
		AppState: []byte("fresh"),
	})
	if len(r.installed) != 1 || string(r.installed[0]) != "fresh" {
		t.Fatalf("installed: %q", r.installed)
	}
}

// TestFormationAdoptionNeedsNoStateTransfer: adopting the initial
// formation decision (one membership descriptor at ordinal 1) creates no
// transfer debt — there is no history to transfer.
func TestFormationAdoptionNeedsNoStateTransfer(t *testing.T) {
	r := newStateRig(4)
	g := model.NewGroup(1, []model.ProcessID{0, 1, 2, 3, 4})
	l := oal.NewList()
	l.AppendMembership(g)
	r.m.OnMessage(&wire.Decision{
		Header: wire.Header{From: 0, SendTS: r.env.now},
		Group:  g, OAL: *l, Alive: g.Members,
	})
	if r.m.State() != StateFailureFree {
		t.Fatalf("state: %v", r.m.State())
	}
	before := r.joinsSent()
	r.env.now = r.p.NextSlotOf(4, r.env.now)
	r.m.OnTimer(TimerSlot)
	if r.joinsSent() != before {
		t.Fatalf("formation member begged for a state transfer")
	}
}

// A process that fell back to the join state (an exclusion, or the
// n-failure fallback) defers deliveries until a state transfer re-bases
// it. When it forms the next group itself, its application state is the
// new lineage's base and no transfer is coming: hand-off must resume at
// formation. It used to stay deferred, holding every later update with
// all its acks undelivered until truncation dropped it.
func TestFormerAfterResetResumesDeliveries(t *testing.T) {
	p := model.DefaultParams(5)
	env := newFakeEnv()
	delivered := 0
	bc := broadcast.New(0, p, broadcast.Config{OnDeliver: func(broadcast.Delivery) { delivered++ }})
	r := &rig{t: t, env: env, m: New(0, p, Config{}, env, bc), bc: bc, p: p}
	r.join(1)
	r.m.resetForJoin()
	for _, q := range []model.ProcessID{1, 2} {
		r.m.OnMessage(&wire.Join{
			Header:   wire.Header{From: q, SendTS: env.now},
			JoinList: []model.ProcessID{0, 1, 2},
			Forming:  true,
		})
	}
	r.m.tryFormInitialGroup()
	if r.m.State() != StateFailureFree || !r.m.Group().Contains(0) || r.m.Group().Size() != 3 {
		t.Fatalf("setup: p0 did not form the group: %v", r.m)
	}
	if r.m.Propose([]byte("after-formation"), oal.Semantics{Order: oal.Unordered, Atomicity: oal.WeakAtomicity}) == nil {
		t.Fatalf("propose refused")
	}
	if delivered != 1 {
		t.Fatalf("the former delivered %d of its own weak/unordered update: deliveries still deferred", delivered)
	}
}
