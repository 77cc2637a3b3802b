package main

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"timewheel"
)

// deliveryRec is one OnDeliver call, as the oracle and the spans need it.
type deliveryRec struct {
	idx      uint64
	seq      uint64
	ord      uint64
	at       int64 // ns since the run's epoch
	proposer uint8
	order    uint8
	atom     uint8
}

// incarnation is one uninterrupted delivery stream of a member: a
// NewNode instance, split again if the member is excluded and readmitted
// (the §3 per-node ordering guarantees hold per membership incarnation).
type incarnation struct {
	node int
	log  []deliveryRec
}

// viewEvent is one OnViewChange call.
type viewEvent struct {
	node    int
	at      int64
	seq     uint64
	members []int
}

// nodeStat indexes the cumulative per-node counters the per-layer table
// is built from; all are read through the public Node API.
type nodeStat int

const (
	sViewChanges nodeStat = iota
	sSingleElections
	sReconfigElections
	sWrongSuspicions
	sDecisionsSent
	sProposed
	sDelivered
	sDeliveredFast
	sPurged
	sRetransmits
	sHandlerCount
	sHandlerNs
	sTimerLateCount
	sTimerLateNs
	sElectionCount
	sElectionNs
	sFsyncCount
	sFsyncNs
	sQueueDrops
	sRecvDrops
	sSendErrors
	numNodeStats
)

type nodeStats [numNodeStats]float64

func (a *nodeStats) addDiff(final, base nodeStats) {
	for i := range a {
		a[i] += final[i] - base[i]
	}
}

func readStats(n *timewheel.Node) nodeStats {
	var s nodeStats
	m := n.Metrics()
	s[sViewChanges] = float64(m.ViewChanges)
	s[sSingleElections] = float64(m.SingleElections)
	s[sReconfigElections] = float64(m.ReconfigElections)
	s[sWrongSuspicions] = float64(m.WrongSuspicions)
	s[sDecisionsSent] = float64(m.DecisionsSent)
	s[sProposed] = float64(m.Proposed)
	s[sDelivered] = float64(m.Delivered)
	s[sDeliveredFast] = float64(m.DeliveredFast)
	s[sPurged] = float64(m.Purged)
	s[sRetransmits] = float64(m.Retransmits)
	hist := func(name string, count, sum nodeStat) {
		if h, ok := n.HistogramStat(name); ok {
			s[count], s[sum] = float64(h.Count), float64(h.Sum)
		}
	}
	hist("timewheel_handler_latency_seconds", sHandlerCount, sHandlerNs)
	hist("timewheel_timer_lateness_seconds", sTimerLateCount, sTimerLateNs)
	hist("timewheel_election_duration_seconds", sElectionCount, sElectionNs)
	hist("timewheel_wal_fsync_seconds", sFsyncCount, sFsyncNs)
	s[sQueueDrops] = float64(n.GuardStats().QueueDrops)
	if v, ok := n.CounterValue("timewheel_transport_recv_drops_total"); ok {
		s[sRecvDrops] = float64(v)
	}
	if v, ok := n.CounterValue("timewheel_transport_send_errors_total"); ok {
		s[sSendErrors] = float64(v)
	}
	return s
}

// member is one team ID: the node currently running under it, if any.
type member struct {
	id int

	// mu orders Propose against Stop: generators hold it shared across a
	// Propose call, the crash controller holds it exclusively to take
	// the node away, so no Propose is ever in flight into a stopped node.
	mu   sync.RWMutex
	node *timewheel.Node // nil while crashed

	live     atomic.Bool // installed the full view: may be chosen as proposer
	up       atomic.Bool // false between an injected crash and the restart
	excluded atomic.Bool // another member installed a view without it while it was up

	// Confined to the running node's event loop.
	inc     *incarnation
	corrupt int

	base    nodeStats // counters at the window start (or zero for a node born inside it)
	dataDir string
	tap     *tap
}

// cluster is one live group plus everything observed about it.
type cluster struct {
	spec   spec
	clock  func() int64
	book   *book
	active atomic.Bool // measured window open (taps count only then)

	hub     *timewheel.MemoryHub
	addrs   map[int]string
	members []*member

	mu       sync.Mutex
	incs     []*incarnation
	views    []viewEvent
	lastView []viewEvent // latest view per node; at == 0 when none or the node was restarted
	notify   chan struct{}

	formedAt int64  // when the last member installed the first full view
	release  func() // closed loop: give a window slot back

	stats nodeStats // summed over nodes, window only
}

func newCluster(sp spec, dir string, traced bool, clock func() int64, bk *book) (*cluster, error) {
	c := &cluster{
		spec: sp, clock: clock, book: bk,
		lastView: make([]viewEvent, sp.n),
		notify:   make(chan struct{}, 1),
		release:  func() {},
	}
	if sp.udp {
		addrs, err := freeLoopbackPorts(sp.n)
		if err != nil {
			return nil, err
		}
		c.addrs = addrs
	} else {
		// Zero injected delay: latency on the hub is protocol timers plus
		// CPU, nothing else.
		c.hub = timewheel.NewMemoryHub(timewheel.HubConfig{})
	}
	for id := 0; id < sp.n; id++ {
		m := &member{id: id}
		if sp.durable {
			m.dataDir = filepath.Join(dir, fmt.Sprintf("node%d", id))
		}
		if traced {
			m.tap = &tap{peers: sp.n - 1, clock: clock, active: &c.active}
		}
		c.members = append(c.members, m)
	}
	return c, nil
}

// freeLoopbackPorts binds n ephemeral UDP ports on 127.0.0.1 at once (so
// they are distinct), then releases them for the transports to take.
func freeLoopbackPorts(n int) (map[int]string, error) {
	addrs := make(map[int]string, n)
	var conns []net.PacketConn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for id := 0; id < n; id++ {
		c, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("probe loopback port: %w", err)
		}
		conns = append(conns, c)
		addrs[id] = c.LocalAddr().String()
	}
	return addrs, nil
}

// boot creates and starts the node for m. The caller owns m (nobody else
// can reach a nil node).
func (c *cluster) boot(m *member) error {
	var tr timewheel.Transport
	if c.spec.udp {
		var err error
		if tr, err = timewheel.NewUDPTransport(m.id, c.addrs); err != nil {
			return fmt.Errorf("node %d: %w", m.id, err)
		}
	} else {
		tr = c.hub.Transport(m.id)
	}
	if m.tap != nil {
		tr = wrapTransport(tr, m.tap)
	}
	m.inc = c.newIncarnation(m.id)
	cfg := timewheel.Config{
		ID: m.id, ClusterSize: c.spec.n, Transport: tr, Params: c.spec.publicParams(),
		OnDeliver:    func(d timewheel.Delivery) { c.onDeliver(m, d) },
		OnViewChange: func(v timewheel.View) { c.onView(m, v) },
	}
	if c.spec.durable {
		cfg.DataDir, cfg.Fsync = m.dataDir, c.spec.fsync
	}
	n, err := timewheel.NewNode(cfg)
	if err != nil {
		tr.Close()
		return fmt.Errorf("node %d: %w", m.id, err)
	}
	m.base = nodeStats{}
	m.live.Store(false)
	m.excluded.Store(false)
	m.up.Store(true)
	m.mu.Lock()
	m.node = n
	m.mu.Unlock()
	n.Start()
	return nil
}

func (c *cluster) newIncarnation(node int) *incarnation {
	inc := &incarnation{node: node, log: make([]deliveryRec, 0, 1<<14)}
	c.mu.Lock()
	c.incs = append(c.incs, inc)
	c.mu.Unlock()
	return inc
}

// take removes m's node so that it can be stopped: afterwards no
// generator can reach it and none is inside Propose.
func (c *cluster) take(m *member) *timewheel.Node {
	m.mu.Lock()
	n := m.node
	m.node = nil
	m.mu.Unlock()
	m.live.Store(false)
	return n
}

func (c *cluster) onDeliver(m *member, d timewheel.Delivery) {
	now := c.clock()
	idx, ok := parsePayload(d.Payload)
	if !ok || idx >= uint64(c.book.capacity()) {
		m.corrupt++
		return
	}
	m.inc.log = append(m.inc.log, deliveryRec{
		idx: idx, seq: d.Seq, ord: d.Ordinal, at: now,
		proposer: uint8(d.Proposer), order: uint8(d.Order), atom: uint8(d.Atomicity),
	})
	if d.Proposer == m.id && c.book.complete(idx, now) {
		c.release()
	}
}

func (c *cluster) onView(m *member, v timewheel.View) {
	ev := viewEvent{node: m.id, at: c.clock(), seq: v.Seq, members: append([]int(nil), v.Members...)}
	for id, other := range c.members {
		if !slices.Contains(v.Members, id) && other.up.Load() {
			other.excluded.Store(true)
		}
	}
	if m.excluded.Swap(false) && len(m.inc.log) > 0 {
		// Readmitted after an exclusion: the join-time transfer restarts
		// the delivery stream, so the ordering floors restart with it.
		m.inc = c.newIncarnation(m.id)
	}
	if len(v.Members) == c.spec.n {
		// Not under m.mu: a generator may hold it while waiting for this
		// very event loop. A stale true after take() is harmless, propose
		// sees the nil node.
		m.live.Store(true)
	}
	c.mu.Lock()
	c.views = append(c.views, ev)
	c.lastView[m.id] = ev
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// awaitViews blocks until every node in nodes has, as its latest view,
// one of exactly size members that does not contain `without` (-1: no
// such condition), and returns when the last of them installed it.
func (c *cluster) awaitViews(nodes []int, size, without int, timeout time.Duration) (int64, error) {
	expire := time.NewTimer(timeout)
	defer expire.Stop()
	for {
		c.mu.Lock()
		ok, last := true, int64(0)
		for _, id := range nodes {
			v := c.lastView[id]
			if v.at == 0 || len(v.members) != size || slices.Contains(v.members, without) {
				ok = false
				break
			}
			last = max(last, v.at)
		}
		c.mu.Unlock()
		if ok {
			return last, nil
		}
		select {
		case <-c.notify:
		case <-expire.C:
			return 0, fmt.Errorf("%s: no %d-member view at nodes %v within %v", c.spec.name, size, nodes, timeout)
		}
	}
}

func (c *cluster) allIDs() []int {
	ids := make([]int, c.spec.n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// form boots every member and waits for the full view everywhere.
func (c *cluster) form(timeout time.Duration) error {
	for _, m := range c.members {
		if err := c.boot(m); err != nil {
			c.stop()
			return err
		}
	}
	formed, err := c.awaitViews(c.allIDs(), c.spec.n, -1, timeout)
	if err != nil {
		c.stop()
		return err
	}
	c.formedAt = formed
	return nil
}

// stop shuts every running node down.
func (c *cluster) stop() {
	for _, m := range c.members {
		m.up.Store(false)
		if n := c.take(m); n != nil {
			n.Stop()
		}
	}
	if c.hub != nil {
		c.hub.Close()
	}
}

// openWindow / closeWindow bracket the measured interval for the
// per-node counters: each running node contributes final − base.
func (c *cluster) openWindow() {
	for _, m := range c.members {
		m.mu.RLock()
		if m.node != nil {
			m.base = readStats(m.node)
		}
		m.mu.RUnlock()
	}
	c.active.Store(true)
}

func (c *cluster) closeWindow() {
	c.active.Store(false)
	for _, m := range c.members {
		m.mu.RLock()
		if m.node != nil {
			c.stats.addDiff(readStats(m.node), m.base)
		}
		m.mu.RUnlock()
	}
}

// proposeResult is what became of one attempt to hand a proposal to a
// member.
type proposeResult int

const (
	accepted proposeResult = iota
	refused                // the node answered ErrNotMember or ErrStopped
	absent                 // no node is running under this ID: choose another
)

// propose sends one proposal through member m and stamps the call in the
// book.
func (c *cluster) propose(m *member, idx uint64, payload []byte, cl class) proposeResult {
	order, atom := cl.semantics()
	b := c.book
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.node == nil {
		return absent
	}
	b.node[idx] = uint8(m.id)
	b.entered[idx] = c.clock()
	err := m.node.Propose(payload, order, atom)
	b.returned[idx] = c.clock()
	switch {
	case err == nil:
		return accepted
	case errors.Is(err, timewheel.ErrNotMember), errors.Is(err, timewheel.ErrStopped):
		return refused
	default:
		panic(fmt.Sprintf("Propose: unexpected error %v", err))
	}
}
