package fabric

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"timewheel"
)

func TestRouterUpdateOrdering(t *testing.T) {
	r1, _ := NewRing([]uint32{1, 2}, 8)
	r2 := r1.WithEpoch(2)
	rt := NewRouter(r1)
	if rt.Update(r1) {
		t.Fatal("same-epoch update accepted")
	}
	if !rt.Update(r2) {
		t.Fatal("newer epoch rejected")
	}
	if rt.Update(r1) {
		t.Fatal("stale epoch accepted after advance")
	}
	if rt.Ring().Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", rt.Ring().Epoch())
	}
}

func TestRouterDoRetriesOnWrongGroup(t *testing.T) {
	r1, _ := NewRing([]uint32{1, 2}, 8)
	rt := NewRouter(r1)
	r2 := r1.WithEpoch(2)

	calls := 0
	err := rt.Do([]byte("k"), 3,
		func() { rt.Update(r2) }, // the refresh fetches the post-move ring
		func(gid uint32, epoch uint64) error {
			calls++
			if epoch != 2 {
				return ErrWrongGroup
			}
			return nil
		})
	if err != nil || calls != 2 {
		t.Fatalf("Do = %v after %d calls; want nil after 2", err, calls)
	}

	// Non-routing errors surface immediately, un-retried.
	boom := errors.New("boom")
	calls = 0
	err = rt.Do([]byte("k"), 3, nil, func(uint32, uint64) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("Do = %v after %d calls; want boom after 1", err, calls)
	}

	// Exhausted attempts wrap ErrWrongGroup.
	err = rt.Do([]byte("k"), 2, nil, func(uint32, uint64) error { return ErrWrongGroup })
	if !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("exhausted Do = %v; want ErrWrongGroup", err)
	}
}

func TestGroupSpecValidation(t *testing.T) {
	cases := []GroupSpec{
		{ID: 0, Replicas: []int{0}},
		{ID: 1},
		{ID: 1, Replicas: []int{0, 1, 0}},
		{ID: 1, Replicas: []int{-1}},
	}
	for _, s := range cases {
		if err := s.validate(); err == nil {
			t.Fatalf("spec %+v accepted", s)
		}
	}
	if err := (GroupSpec{ID: 3, Replicas: []int{2, 0, 1}}).validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// fastParams is the fabric tests' timing model: D = 40 ms, wide enough
// that a host busy with other test binaries does not turn scheduling
// delay into spurious suspicions.
func fastParams() timewheel.Params {
	return timewheel.Params{
		Delta:   20 * time.Millisecond,
		D:       40 * time.Millisecond,
		Epsilon: 10 * time.Millisecond,
		Sigma:   10 * time.Millisecond,
		SlotPad: 5 * time.Millisecond,
	}
}

// startFabric boots two 3-replica groups across three hosts on one
// shared hub and waits for both groups to form full views everywhere.
func startFabric(t *testing.T) ([]*Node, *timewheel.MemoryHub) {
	t.Helper()
	hub := timewheel.NewMemoryHub(timewheel.HubConfig{MaxDelay: 300 * time.Microsecond, Seed: 11})
	specs := []GroupSpec{
		{ID: 1, Replicas: []int{0, 1, 2}},
		{ID: 2, Replicas: []int{2, 0, 1}},
	}
	nodes := make([]*Node, 3)
	for h := 0; h < 3; h++ {
		n, err := New(Config{
			Host:      h,
			Transport: hub.Transport(h),
			Groups:    specs,
			Params:    fastParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[h] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		hub.Close()
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		formed := true
		for _, n := range nodes {
			for _, gid := range []uint32{1, 2} {
				v, ok := n.Group(gid).CurrentView()
				if !ok || len(v.Members) != 3 {
					formed = false
				}
			}
		}
		if formed {
			return nodes, hub
		}
		if time.Now().After(deadline) {
			t.Fatal("fabric groups never formed full views")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Two groups sharing one trunk: both form, and a proposal on each group
// delivers without crossing into the other.
func TestFabricTwoGroupsOneTrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fabric test")
	}
	nodes, _ := startFabric(t)

	for _, gid := range []uint32{1, 2} {
		payload := []byte(fmt.Sprintf("hello-g%d", gid))
		if err := nodes[0].Group(gid).Propose(payload, timewheel.TotalOrder, timewheel.Strong); err != nil {
			t.Fatalf("propose on g%d: %v", gid, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, n := range nodes {
			for _, gid := range []uint32{1, 2} {
				if n.Group(gid).Metrics().Delivered < 1 {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proposals never delivered on both groups")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, n := range nodes {
		st := n.DemuxStats()
		if st.UnknownGroup != 0 || st.Malformed != 0 {
			t.Fatalf("host %d demux drops: %+v", n.Host(), st)
		}
	}
}

// ProposeKey enforces the routing epoch and group placement.
func TestFabricProposeKeyEpochGate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fabric test")
	}
	nodes, _ := startFabric(t)
	n := nodes[0]

	ring := n.Ring()
	// Find a key for each group so both paths are exercised.
	for _, gid := range []uint32{1, 2} {
		var key []byte
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("probe-%d", i))
			if ring.Route(k) == gid {
				key = k
				break
			}
		}
		if err := n.ProposeKey(ring.Epoch(), key, []byte("v"), timewheel.TotalOrder, timewheel.Strong); err != nil {
			t.Fatalf("ProposeKey(g%d): %v", gid, err)
		}
		if err := n.ProposeKey(ring.Epoch()+1, key, []byte("v"), timewheel.TotalOrder, timewheel.Strong); !errors.Is(err, ErrWrongGroup) {
			t.Fatalf("stale-epoch ProposeKey = %v; want ErrWrongGroup", err)
		}
	}
}

func TestFabricConfigValidation(t *testing.T) {
	hub := timewheel.NewMemoryHub(timewheel.HubConfig{})
	defer hub.Close()
	if _, err := New(Config{Host: 0, Groups: []GroupSpec{{ID: 1, Replicas: []int{0}}}}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := New(Config{Host: 0, Transport: hub.Transport(0)}); err == nil {
		t.Fatal("no groups and no ring accepted")
	}
	if _, err := New(Config{Host: 0, Transport: hub.Transport(1), Groups: []GroupSpec{
		{ID: 1, Replicas: []int{0}}, {ID: 1, Replicas: []int{1}},
	}}); err == nil {
		t.Fatal("duplicate group ids accepted")
	}
}
