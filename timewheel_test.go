package timewheel

import (
	"sync"
	"testing"
	"time"
)

// fastParams is the real-time tests' timing, the same as the fabric and
// rsm packages': D = 40 ms, slot 75 ms. Tighter timing (D = 4 ms) made
// them fail under CPU load, when scheduling delays exceed δ.
func fastParams() Params {
	return Params{
		Delta:   20 * time.Millisecond,
		D:       40 * time.Millisecond,
		Epsilon: 10 * time.Millisecond,
		Sigma:   10 * time.Millisecond,
		SlotPad: 5 * time.Millisecond,
	}
}

type recorder struct {
	mu         sync.Mutex
	deliveries []Delivery
	views      []View
}

func (r *recorder) onDeliver(d Delivery) {
	r.mu.Lock()
	r.deliveries = append(r.deliveries, d)
	r.mu.Unlock()
}

func (r *recorder) onView(v View) {
	r.mu.Lock()
	r.views = append(r.views, v)
	r.mu.Unlock()
}

func (r *recorder) deliveryCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.deliveries)
}

// startCluster boots n in-memory nodes and waits until they all report a
// full view.
func startCluster(t *testing.T, n int) ([]*Node, []*recorder, func()) {
	t.Helper()
	hub := NewMemoryHub(HubConfig{MaxDelay: 500 * time.Microsecond, Seed: 42})
	nodes := make([]*Node, n)
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		node, err := NewNode(Config{
			ID:           i,
			ClusterSize:  n,
			Transport:    hub.Transport(i),
			Params:       fastParams(),
			OnDeliver:    recs[i].onDeliver,
			OnViewChange: recs[i].onView,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, nd := range nodes {
		nd.Start()
	}
	stop := func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		hub.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, nd := range nodes {
			v, ok := nd.CurrentView()
			if !ok || len(v.Members) != n {
				all = false
				break
			}
		}
		if all {
			return nodes, recs, stop
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("cluster never formed a full view")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRealTimeFormationAndBroadcast(t *testing.T) {
	nodes, recs, stop := startCluster(t, 3)
	defer stop()

	if err := nodes[0].Propose([]byte("hello"), TotalOrder, Strong); err != nil {
		t.Fatalf("propose: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, r := range recs {
			if r.deliveryCount() < 1 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivery timeout: %d %d %d",
				recs[0].deliveryCount(), recs[1].deliveryCount(), recs[2].deliveryCount())
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range recs {
		r.mu.Lock()
		d := r.deliveries[0]
		r.mu.Unlock()
		if string(d.Payload) != "hello" || d.Proposer != 0 || d.Order != TotalOrder || d.Atomicity != Strong {
			t.Fatalf("node %d delivery: %+v", i, d)
		}
	}
	// Views were reported.
	for i, r := range recs {
		r.mu.Lock()
		nv := len(r.views)
		r.mu.Unlock()
		if nv == 0 {
			t.Fatalf("node %d saw no view change", i)
		}
	}
	if s := nodes[0].StateName(); s != "failure-free" {
		t.Fatalf("state: %s", s)
	}
}

func TestRealTimeCrashRecovery(t *testing.T) {
	nodes, _, stop := startCluster(t, 3)
	defer stop()

	// Stop node 2 abruptly; the survivors must reconfigure to {0,1}.
	nodes[2].Stop()
	deadline := time.Now().Add(15 * time.Second)
	for {
		v0, ok0 := nodes[0].CurrentView()
		v1, ok1 := nodes[1].CurrentView()
		if ok0 && ok1 && len(v0.Members) == 2 && len(v1.Members) == 2 && v0.Seq == v1.Seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never excluded the stopped node: %v %v", v0, v1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestProposeWhileJoiningFails(t *testing.T) {
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	n, err := NewNode(Config{ID: 0, ClusterSize: 3, Transport: hub.Transport(0), Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.Start()
	// Alone, it can never form a majority of 3.
	if err := n.Propose([]byte("x"), Unordered, Weak); err != ErrNotMember {
		t.Fatalf("propose while joining: %v", err)
	}
	if _, ok := n.CurrentView(); ok {
		t.Fatalf("lone node claims a view")
	}
	if s := n.StateName(); s != "join" {
		t.Fatalf("state: %s", s)
	}
}

func TestConfigValidation(t *testing.T) {
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	cases := []Config{
		{ID: 0, ClusterSize: 0, Transport: hub.Transport(0)},
		{ID: -1, ClusterSize: 3, Transport: hub.Transport(0)},
		{ID: 3, ClusterSize: 3, Transport: hub.Transport(0)},
		{ID: 0, ClusterSize: 3, Transport: nil},
		{ID: 0, ClusterSize: 65, Transport: hub.Transport(0)},
	}
	for i, cfg := range cases {
		if _, err := NewNode(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStopIsIdempotentAndRejectsPropose(t *testing.T) {
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	n, err := NewNode(Config{ID: 0, ClusterSize: 1, Transport: hub.Transport(0), Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Stop()
	n.Stop()
	if err := n.Propose([]byte("x"), Unordered, Weak); err != ErrStopped {
		t.Fatalf("propose after stop: %v", err)
	}
}

func TestSingletonClusterRealTime(t *testing.T) {
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	var rec recorder
	n, err := NewNode(Config{
		ID: 0, ClusterSize: 1, Transport: hub.Transport(0), Params: fastParams(),
		OnDeliver: rec.onDeliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := n.CurrentView(); ok && len(v.Members) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("singleton never formed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.Propose([]byte("solo"), TotalOrder, Strict); err != nil {
		t.Fatalf("propose: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for rec.deliveryCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("singleton never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUDPClusterEndToEnd(t *testing.T) {
	// Bootstrap: grab three loopback ports.
	probe := func() string {
		tr, err := NewUDPTransport(0, map[int]string{0: "127.0.0.1:0"})
		if err != nil {
			t.Skipf("udp unavailable: %v", err)
		}
		type local interface{ Close() error }
		addr := tr.(interface{ LocalAddr() string })
		_ = addr
		tr.Close()
		return ""
	}
	_ = probe
	addrs := map[int]string{0: "127.0.0.1:39701", 1: "127.0.0.1:39702", 2: "127.0.0.1:39703"}
	nodes := make([]*Node, 3)
	recs := make([]*recorder, 3)
	for i := 0; i < 3; i++ {
		tr, err := NewUDPTransport(i, addrs)
		if err != nil {
			t.Skipf("udp unavailable: %v", err)
		}
		recs[i] = &recorder{}
		nodes[i], err = NewNode(Config{
			ID: i, ClusterSize: 3, Transport: tr, Params: fastParams(),
			OnDeliver: recs[i].onDeliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		all := true
		for _, n := range nodes {
			if v, ok := n.CurrentView(); !ok || len(v.Members) != 3 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("udp cluster never formed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := nodes[1].Propose([]byte("over-udp"), TotalOrder, Weak); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for recs[2].deliveryCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("udp delivery timeout")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	nodes, _, stop := startCluster(t, 3)
	defer stop()
	if err := nodes[0].Propose([]byte("m"), TotalOrder, Weak); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := nodes[0].Metrics()
		if m.Proposed == 1 && m.Delivered >= 1 && m.ViewChanges >= 1 && m.DecisionsSent >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never reflected activity: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Failure-free: no election machinery ran.
	m := nodes[0].Metrics()
	if m.SingleElections != 0 || m.ReconfigElections != 0 || m.NoDecisionsSent != 0 {
		t.Fatalf("election counters nonzero in failure-free run: %+v", m)
	}
}

func TestParamsConversionDefaults(t *testing.T) {
	// Zero params take LAN defaults; set fields override.
	p := Params{}.toModel(5)
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	q := Params{
		Delta:   7 * time.Millisecond,
		D:       21 * time.Millisecond,
		Epsilon: 3 * time.Millisecond,
		Sigma:   4 * time.Millisecond,
		SlotPad: 5 * time.Millisecond,
	}.toModel(4)
	if q.Delta != 7000 || q.D != 21000 || q.Epsilon != 3000 || q.Sigma != 4000 || q.SlotPad != 5000 {
		t.Fatalf("overrides not applied: %+v", q)
	}
	if q.N != 4 {
		t.Fatalf("N: %d", q.N)
	}
}

func TestProposeSeqRegistersBeforeOutcome(t *testing.T) {
	nodes, _, stop := startCluster(t, 3)
	defer stop()
	registered := make(chan uint64, 1)
	seq, err := nodes[0].ProposeSeq([]byte("s"), TotalOrder, Weak, func(s uint64) { registered <- s })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-registered:
		if got != seq {
			t.Fatalf("register saw %d, ProposeSeq returned %d", got, seq)
		}
	default:
		t.Fatalf("register hook did not run before ProposeSeq returned")
	}
	if seq == 0 {
		t.Fatalf("zero sequence")
	}
	// While joining, ProposeSeq reports ErrNotMember.
	hub := NewMemoryHub(HubConfig{})
	defer hub.Close()
	lone, err := NewNode(Config{ID: 0, ClusterSize: 3, Transport: hub.Transport(0), Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Stop()
	lone.Start()
	if _, err := lone.ProposeSeq([]byte("x"), Unordered, Weak, nil); err != ErrNotMember {
		t.Fatalf("lone ProposeSeq: %v", err)
	}
}
