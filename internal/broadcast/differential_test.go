package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
	"timewheel/internal/wire"
)

// TestDeliveryDifferential drives two copies of one group through the
// same seeded schedule — one delivering through the indexed path, one
// through the scan-everything reference — and requires, after every
// step, identical OnDeliver sequences, dpd and Stats at every member,
// identical decisions on the wire, and an index that matches the view.
// A schedule interleaves Propose, OnProposal (late, duplicated, lost),
// BuildDecision, AdoptDecision (late, lost, repaired through OALFull),
// SuppressSender, an election's Reconcile with the loser's Reset, and a
// rejoin through AnnounceGroup/BuildState/ApplyState, over all three
// orders and atomicities, with delta and full decisions.
func TestDeliveryDifferential(t *testing.T) {
	schedules := 10000
	if testing.Short() {
		schedules = 1000
	}
	for seed := 1; seed <= schedules; seed++ {
		w := newDiffWorld(t, int64(seed))
		for step := 0; step < 90 && !t.Failed(); step++ {
			w.step()
			w.compare(step)
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

const (
	sideIndexed = 0
	sideRef     = 1
)

// diffWorld is one group simulated twice. Everything that happens is
// decided once, from rng, and applied to both sides.
type diffWorld struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	params model.Params
	now    model.Time
	group  model.Group
	in     []bool // member is in the group (not reset and waiting to rejoin)

	members [2][]*Broadcast
	deliv   [2][][]Delivery

	bodies []diffBody     // proposal bodies in flight
	decs   [][]diffFrames // per member: decisions in flight, oldest first
	sent   int            // payload counter
	last   int            // who built the freshest decision
}

type diffBody struct {
	to int
	p  [2]*wire.Proposal
}

// diffFrames is one decision as each side encoded it.
type diffFrames struct {
	from  int
	frame [2][]byte
}

func newDiffWorld(t *testing.T, seed int64) *diffWorld {
	const n = 3
	rng := rand.New(rand.NewSource(seed))
	w := &diffWorld{
		t: t, seed: seed, rng: rng,
		params: model.DefaultParams(n),
		now:    1_000_000,
		in:     make([]bool, n),
		decs:   make([][]diffFrames, n),
	}
	fullEvery := 0 // deltas on, one world in five with them off
	if rng.Intn(5) == 4 {
		fullEvery = -1
	}
	ids := make([]model.ProcessID, n)
	for side := range w.members {
		w.members[side] = make([]*Broadcast, n)
		w.deliv[side] = make([][]Delivery, n)
		for i := 0; i < n; i++ {
			side, i := side, i
			ids[i] = model.ProcessID(i)
			b := New(ids[i], w.params, Config{
				FullOALEvery: fullEvery,
				OnDeliver:    func(d Delivery) { w.deliv[side][i] = append(w.deliv[side][i], d) },
				Snapshot:     func() []byte { return []byte("snap") },
			})
			if side == sideRef {
				b.deliverRef = refTryDeliver
			}
			w.members[side][i] = b
		}
	}
	// Formation: p0 starts the lineage and announces the group.
	w.group = model.NewGroup(1, ids)
	for i := range w.in {
		w.in[i] = true
	}
	w.both(func(side int) {
		m := w.members[side][0]
		m.BeginLineage(w.group.Seq)
		m.AnnounceGroup(w.now, w.group)
	})
	w.decide(0)
	for i := 1; i < n; i++ {
		w.drainDecisions(i)
	}
	return w
}

func (w *diffWorld) both(f func(side int)) {
	f(sideIndexed)
	f(sideRef)
}

func (w *diffWorld) pickMember() int {
	for {
		if i := w.rng.Intn(len(w.in)); w.in[i] {
			return i
		}
	}
}

func (w *diffWorld) step() {
	switch r := w.rng.Intn(100); {
	case r < 30:
		w.propose()
	case r < 52:
		w.deliverBody()
	case r < 66:
		w.decide(w.pickMember())
	case r < 84:
		w.deliverDecision(w.pickMember())
	case r < 88:
		w.now += model.Time(w.params.D / 4)
	case r < 90:
		w.now = w.now.Add(w.params.CycleLen() + 1)
	case r < 93:
		j, q := w.pickMember(), model.ProcessID(w.rng.Intn(len(w.in)))
		w.both(func(side int) { w.members[side][j].SuppressSender(q, w.now) })
	case r < 95:
		j := w.pickMember()
		w.both(func(side int) {
			w.members[side][j].CurrentView()
			w.members[side][j].DPD()
		})
	case r < 98:
		w.election()
	default:
		w.rejoin()
	}
}

func (w *diffWorld) propose() {
	from := w.pickMember()
	sem := oal.Semantics{Order: oal.Order(w.rng.Intn(3)), Atomicity: oal.Atomicity(w.rng.Intn(3))}
	w.now += model.Time(1 + w.rng.Intn(200))
	w.sent++
	payload := []byte(fmt.Sprintf("u%d", w.sent))
	var p [2]*wire.Proposal
	w.both(func(side int) { p[side] = w.members[side][from].Propose(w.now, payload, sem) })
	if !bytes.Equal(wire.Encode(p[0]), wire.Encode(p[1])) {
		w.t.Errorf("seed %d: proposal differs: %+v vs %+v", w.seed, p[0], p[1])
	}
	for to := range w.in {
		if to != from && w.rng.Intn(20) != 0 { // one in twenty is lost
			w.bodies = append(w.bodies, diffBody{to: to, p: p})
		}
	}
}

func (w *diffWorld) deliverBody() {
	if len(w.bodies) == 0 {
		return
	}
	k := w.rng.Intn(len(w.bodies))
	if w.rng.Intn(4) != 0 {
		k = 0 // mostly in order
	}
	body := w.bodies[k]
	if w.rng.Intn(10) != 0 { // one in ten stays queued: a duplicate later
		w.bodies = slices.Delete(w.bodies, k, k+1)
	}
	if !w.in[body.to] {
		return
	}
	w.now += model.Time(w.rng.Intn(50))
	w.both(func(side int) { w.members[side][body.to].OnProposal(w.now, body.p[side]) })
}

// decide has member i catch up on the decisions it was sent and then
// build one, queued to everybody else.
func (w *diffWorld) decide(i int) {
	w.catchUp(i)
	w.now += model.Time(1 + w.rng.Intn(int(w.params.D)))
	var fr diffFrames
	fr.from = i
	var missing [2][]oal.ProposalID
	w.both(func(side int) {
		dec, miss := w.members[side][i].BuildDecision(w.now, w.group, w.group.Members)
		fr.frame[side], missing[side] = wire.Encode(dec), miss
	})
	if !bytes.Equal(fr.frame[0], fr.frame[1]) || !slices.Equal(missing[0], missing[1]) {
		w.t.Errorf("seed %d: p%d built different decisions (%d vs %d bytes, missing %v vs %v)",
			w.seed, i, len(fr.frame[0]), len(fr.frame[1]), missing[0], missing[1])
	}
	for to := range w.in {
		if to != i && w.in[to] {
			w.decs[to] = append(w.decs[to], fr)
		}
	}
	w.last = i
}

// catchUp brings member i to the freshest decision, as holding the
// decider role implies: it adopts what it was sent, and if the freshest
// decision was lost on the way, its sender's baseline.
func (w *diffWorld) catchUp(i int) {
	w.drainDecisions(i)
	if i == w.last {
		return
	}
	w.both(func(side int) {
		m, sender := w.members[side][i], w.members[side][w.last]
		if m.LastDecisionTS() >= sender.LastDecisionTS() {
			return
		}
		if of := sender.ServeFullOAL(w.now); of != nil {
			m.InstallFullOAL(w.now, of)
			w.followGroup(m, of.Group)
		}
	})
}

// followGroup installs a newer group a decision announced, as
// member.Machine does on adoption.
func (w *diffWorld) followGroup(m *Broadcast, g model.Group) {
	if g.Seq <= m.Group().Seq {
		return
	}
	var departed []model.ProcessID
	for _, q := range m.Group().Members {
		if !g.Contains(q) {
			departed = append(departed, q)
		}
	}
	m.DropPendingFrom(departed)
	m.SetGroup(g)
}

func (w *diffWorld) drainDecisions(i int) {
	for len(w.decs[i]) > 0 {
		w.adoptNext(i, false)
	}
}

func (w *diffWorld) deliverDecision(i int) {
	if len(w.decs[i]) > 0 {
		w.adoptNext(i, w.rng.Intn(8) == 0)
	}
}

// adoptNext hands member i its oldest queued decision (or loses it). A
// delta it cannot resolve is repaired the way member.Machine does it:
// the sender serves its newest baseline.
func (w *diffWorld) adoptNext(i int, lose bool) {
	fr := w.decs[i][0]
	w.decs[i] = w.decs[i][1:]
	if lose {
		return
	}
	w.now += model.Time(w.rng.Intn(50))
	var adopted [2]bool
	var missing [2][]oal.ProposalID
	w.both(func(side int) {
		msg, err := wire.Decode(fr.frame[side])
		if err != nil {
			w.t.Fatalf("seed %d: decision does not decode: %v", w.seed, err)
		}
		dec := msg.(*wire.Decision)
		m := w.members[side][i]
		if !m.DecisionResolvable(dec) {
			sender := w.members[side][fr.from]
			sender.ForceFullOAL()
			if of := sender.ServeFullOAL(w.now); of != nil {
				adopted[side], missing[side] = m.InstallFullOAL(w.now, of)
			}
		} else {
			adopted[side], missing[side] = m.AdoptDecision(w.now, dec)
		}
		if adopted[side] {
			w.followGroup(m, dec.Group)
		}
	})
	if adopted[0] != adopted[1] || !slices.Equal(missing[0], missing[1]) {
		w.t.Errorf("seed %d: p%d adoption differs: %v %v vs %v %v", w.seed, i, adopted[0], missing[0], adopted[1], missing[1])
	}
}

// election removes one member: the winner reconciles with the reports of
// the others and decides; the loser resets, as an excluded process does.
func (w *diffWorld) election() {
	if w.group.Size() < 3 {
		return
	}
	winner, loser := w.pickMember(), w.pickMember()
	if winner == loser {
		return
	}
	w.catchUp(winner)
	w.now += model.Time(w.params.D)
	newGroup := w.group.Remove(model.ProcessID(loser))
	newGroup.Seq = w.group.Seq + 1
	w.both(func(side int) {
		var reports []Report
		for j := range w.in {
			if j == winner || j == loser || !w.in[j] {
				continue
			}
			m := w.members[side][j]
			m.SuppressSender(model.ProcessID(loser), w.now)
			reports = append(reports, Report{From: model.ProcessID(j), View: m.CurrentView(), DPD: m.DPD()})
		}
		m := w.members[side][winner]
		m.SuppressSender(model.ProcessID(loser), w.now)
		m.Reconcile(w.now, newGroup, []model.ProcessID{model.ProcessID(loser)}, reports)
		w.members[side][loser].Reset()
	})
	w.group = newGroup
	w.in[loser] = false
	w.decs[loser] = nil
	w.decide(winner)
}

// rejoin readmits the member that is out: a decider announces the group,
// decides, and transfers state.
func (w *diffWorld) rejoin() {
	joiner := slices.Index(w.in, false)
	if joiner < 0 {
		return
	}
	decider := w.pickMember()
	w.catchUp(decider)
	w.now += model.Time(w.params.D)
	newGroup := model.NewGroup(w.group.Seq+1, append([]model.ProcessID{model.ProcessID(joiner)}, w.group.Members...))
	deferFirst, stateFirst := w.rng.Intn(3) == 0, w.rng.Intn(2) == 0
	w.both(func(side int) { w.members[side][decider].AnnounceGroup(w.now, newGroup) })
	w.group = newGroup
	w.in[joiner] = true
	w.decide(decider)
	w.both(func(side int) {
		st, err := wire.Decode(wire.Encode(w.members[side][decider].BuildState(w.now, 0, 0)))
		if err != nil {
			w.t.Fatalf("seed %d: state does not decode: %v", w.seed, err)
		}
		j := w.members[side][joiner]
		j.DeferDeliveries(deferFirst)
		if stateFirst {
			j.ApplyState(w.now, st.(*wire.State))
		}
	})
	w.drainDecisions(joiner)
	if !stateFirst {
		w.both(func(side int) {
			st, _ := wire.Decode(wire.Encode(w.members[side][decider].BuildState(w.now, 0, 0)))
			w.members[side][joiner].ApplyState(w.now, st.(*wire.State))
		})
	}
}

func (w *diffWorld) compare(step int) {
	for i := range w.in {
		a, r := w.members[sideIndexed][i], w.members[sideRef][i]
		da, dr := w.deliv[sideIndexed][i], w.deliv[sideRef][i]
		same := len(da) == len(dr)
		for k := 0; same && k < len(da); k++ {
			same = da[k].ID == dr[k].ID && da[k].Ordinal == dr[k].Ordinal && bytes.Equal(da[k].Payload, dr[k].Payload)
		}
		if !same {
			w.t.Errorf("seed %d step %d: p%d delivered %v, reference %v", w.seed, step, i, deliveredIDs(da), deliveredIDs(dr))
		}
		if !slices.Equal(a.DPD(), r.DPD()) {
			w.t.Errorf("seed %d step %d: p%d dpd %v, reference %v", w.seed, step, i, a.DPD(), r.DPD())
		}
		if a.Stats() != r.Stats() {
			w.t.Errorf("seed %d step %d: p%d stats %+v, reference %+v", w.seed, step, i, a.Stats(), r.Stats())
		}
		if err := checkIndex(a); err != nil {
			w.t.Errorf("seed %d step %d: p%d index: %v", w.seed, step, i, err)
		}
	}
}

func deliveredIDs(ds []Delivery) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%v@o%d", d.ID, d.Ordinal)
	}
	return out
}

// checkIndex verifies what index.go promises about the view's
// bookkeeping against a full scan.
func checkIndex(b *Broadcast) error {
	if len(b.meta) != len(b.view.Entries) {
		return fmt.Errorf("meta has %d entries, view %d", len(b.meta), len(b.view.Entries))
	}
	updates := 0
	for i := range b.view.Entries {
		d := &b.view.Entries[i]
		if i > 0 && d.Ordinal != b.view.Entries[i-1].Ordinal+1 {
			return fmt.Errorf("view not contiguous at o%d", d.Ordinal)
		}
		if d.Kind != oal.UpdateDesc {
			continue
		}
		updates++
		if got := b.ids.ordinal(d.ID); got != d.Ordinal {
			return fmt.Errorf("ordinal of %v = %d, view has o%d", d.ID, got, d.Ordinal)
		}
		done := d.Undeliverable || b.ids.delivered(d.ID)
		if !done && d.Ordinal < b.dcur {
			return fmt.Errorf("undelivered o%d below the delivery cursor %d", d.Ordinal, b.dcur)
		}
		if d.StableTS == 0 && d.Ordinal < b.stableCur {
			return fmt.Errorf("unstable o%d below the stability cursor %d", d.Ordinal, b.stableCur)
		}
		have := b.ids.body(d.ID) != nil
		if !done && !have && !slices.Contains(b.bodiless, d.Ordinal) {
			return fmt.Errorf("o%d has no body and is not a missing-body candidate", d.Ordinal)
		}
		for k, need := range b.ackNeeds() {
			if !d.Undeliverable && d.Acks.CountIn(b.group) < need && d.Ordinal < b.ackFail[k] {
				return fmt.Errorf("o%d lacks %d acks below watermark %d", d.Ordinal, need, b.ackFail[k])
			}
		}
	}
	ordered := 0
	for id, r := range b.ids.all() {
		if r.ord != oal.None {
			ordered++
		}
		if p := r.body; p != nil && p.Sem == (oal.Semantics{}) && !r.delivered && !slices.Contains(b.fastQ, id) {
			return fmt.Errorf("undelivered unordered/weak body %v is not a fast-path candidate", id)
		}
	}
	if ordered != updates {
		return fmt.Errorf("the ID table orders %d updates, the view %d", ordered, updates)
	}
	return checkIDTable(&b.ids)
}

// checkIDTable verifies what ids.go promises about the ID table's layout.
func checkIDTable(t *idTable) error {
	for k, pr := range t.procs {
		if k > 0 && t.procs[k-1].proposer >= pr.proposer {
			return fmt.Errorf("proposers out of order at p%d", pr.proposer)
		}
		var pend []uint64
		empties := 0
		for i := range pr.recs {
			r := &pr.recs[i]
			if i > 0 && pr.recs[i-1].seq >= r.seq {
				return fmt.Errorf("p%d: records out of order at seq %d", pr.proposer, r.seq)
			}
			if r.empty() {
				empties++
			}
			if r.pending() {
				pend = append(pend, r.seq)
			}
			if r.body != nil && r.body.ID != (oal.ProposalID{Proposer: pr.proposer, Seq: r.seq}) {
				return fmt.Errorf("p%d seq %d holds the body of %v", pr.proposer, r.seq, r.body.ID)
			}
		}
		if len(pr.recs) > 0 && pr.recs[0].empty() {
			return fmt.Errorf("p%d: empty record at the head", pr.proposer)
		}
		if empties != pr.empties {
			return fmt.Errorf("p%d: %d empty records, counted %d", pr.proposer, empties, pr.empties)
		}
		if !slices.Equal(pend, pr.pend) {
			return fmt.Errorf("p%d: pending records %v, pend lists %v", pr.proposer, pend, pr.pend)
		}
	}
	return nil
}

// bodyCount is the size of b's proposal buffer.
func bodyCount(b *Broadcast) int {
	n := 0
	for _, r := range b.ids.all() {
		if r.body != nil {
			n++
		}
	}
	return n
}

// deliveredCount is the number of b's delivered marks.
func deliveredCount(b *Broadcast) int {
	n := 0
	for _, r := range b.ids.all() {
		if r.delivered {
			n++
		}
	}
	return n
}
