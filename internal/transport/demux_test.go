package transport

import (
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/wire"
)

// stubTrunk is a loopback Transport: Inject feeds the installed
// receiver directly, sends are recorded.
type stubTrunk struct {
	self model.ProcessID
	recv Receiver
	sent int
}

func (s *stubTrunk) Self() model.ProcessID { return s.self }
func (s *stubTrunk) Broadcast(data []byte) error {
	s.sent++
	return nil
}
func (s *stubTrunk) Unicast(to model.ProcessID, data []byte) error {
	s.sent++
	return nil
}
func (s *stubTrunk) SetReceiver(r Receiver) { s.recv = r }
func (s *stubTrunk) Close() error           { return nil }

func groupedDatagram(t testing.TB, gid uint32, n int) []byte {
	t.Helper()
	var c wire.Coalescer
	c.SetGroup(gid)
	for i := 0; i < n; i++ {
		if !c.TryAppend(&wire.Nack{Header: wire.Header{From: model.ProcessID(i), SendTS: model.Time(i)}}) {
			t.Fatal("TryAppend refused")
		}
	}
	return append([]byte(nil), c.Datagram()...)
}

func TestDemuxRoutesByGroup(t *testing.T) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	got := map[uint32]int{}
	for _, gid := range []uint32{3, 7} {
		gid := gid
		d.Port(gid).SetReceiver(func(frame []byte) {
			if _, err := wire.Decode(frame); err != nil {
				t.Errorf("group %d received undecodable frame: %v", gid, err)
			}
			got[gid]++
		})
	}
	trunk.recv(groupedDatagram(t, 3, 2))
	trunk.recv(groupedDatagram(t, 7, 3))
	trunk.recv(groupedDatagram(t, 3, 1))
	if got[3] != 3 || got[7] != 3 {
		t.Fatalf("delivery counts = %v, want 3 to each group", got)
	}
	if st := d.Stats(); st.UnknownGroup != 0 || st.Malformed != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
}

func TestDemuxUnknownGroupDroppedNotCrossDelivered(t *testing.T) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	delivered := 0
	d.Port(3).SetReceiver(func([]byte) { delivered++ })
	trunk.recv(groupedDatagram(t, 99, 2))
	if delivered != 0 {
		t.Fatal("unknown-group datagram cross-delivered")
	}
	if st := d.Stats(); st.UnknownGroup != 1 {
		t.Fatalf("UnknownGroup = %d, want 1", st.UnknownGroup)
	}
}

func TestDemuxMalformedCounted(t *testing.T) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	d.Port(3).SetReceiver(func([]byte) { t.Fatal("malformed datagram delivered") })
	trunk.recv([]byte{wire.GroupMagic, 3, 0})             // truncated header
	trunk.recv([]byte{wire.GroupMagic, 3, 0, 0, 0, 2, 1}) // bad sub-frame walk
	if st := d.Stats(); st.Malformed != 2 {
		t.Fatalf("Malformed = %d, want 2", st.Malformed)
	}
}

func TestDemuxLegacyTrafficIsGroupZero(t *testing.T) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	got := 0
	d.Port(0).SetReceiver(func(data []byte) { got++ })
	bare := wire.Encode(&wire.Nack{Header: wire.Header{From: 1, SendTS: 2}})
	trunk.recv(bare)
	var c wire.Coalescer
	c.TryAppend(&wire.Nack{Header: wire.Header{From: 1, SendTS: 2}})
	c.TryAppend(&wire.Nack{Header: wire.Header{From: 3, SendTS: 4}})
	trunk.recv(c.Datagram())
	// Legacy datagrams arrive whole (the engine splits 0xC0 itself).
	if got != 2 {
		t.Fatalf("group-0 deliveries = %d, want 2", got)
	}
}

func TestPortCloseDeregistersOnly(t *testing.T) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	p := d.Port(3)
	delivered := 0
	p.SetReceiver(func([]byte) { delivered++ })
	trunk.recv(groupedDatagram(t, 3, 1))
	if delivered != 1 {
		t.Fatal("pre-close delivery missing")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Broadcast(nil); err != ErrClosed {
		t.Fatalf("Broadcast on closed port: %v, want ErrClosed", err)
	}
	trunk.recv(groupedDatagram(t, 3, 1))
	if delivered != 1 {
		t.Fatal("closed port still receiving")
	}
	if st := d.Stats(); st.UnknownGroup != 1 {
		t.Fatalf("UnknownGroup = %d, want 1", st.UnknownGroup)
	}
	// Re-registration under the old id gets a fresh, working port.
	p2 := d.Port(3)
	if p2 == p {
		t.Fatal("Port returned the closed port")
	}
	p2.SetReceiver(func([]byte) { delivered++ })
	trunk.recv(groupedDatagram(t, 3, 1))
	if delivered != 2 {
		t.Fatal("re-registered port not receiving")
	}
}

func TestPortSendsShareTrunk(t *testing.T) {
	trunk := &stubTrunk{self: 4}
	d := NewDemux(trunk)
	p := d.Port(9)
	if p.Self() != 4 {
		t.Fatalf("Self = %v, want trunk self 4", p.Self())
	}
	if err := p.Broadcast([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Unicast(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if trunk.sent != 2 {
		t.Fatalf("trunk sends = %d, want 2", trunk.sent)
	}
}

// TestDemuxRouteZeroAlloc pins the routing hot path: steady-state
// demultiplexing of grouped datagrams must not allocate.
func TestDemuxRouteZeroAlloc(t *testing.T) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	sink := 0
	d.Port(3).SetReceiver(func(frame []byte) { sink += len(frame) })
	data := groupedDatagram(t, 3, 4)
	unknown := groupedDatagram(t, 99, 1)
	allocs := testing.AllocsPerRun(200, func() {
		trunk.recv(data)
		trunk.recv(unknown)
	})
	if allocs != 0 {
		t.Fatalf("demux route allocates %.1f/op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("receiver never ran")
	}
}

// BenchmarkFabricDemux measures the fabric receive hot path: a grouped
// datagram of 4 frames routed through the demux to its port receiver.
// TestDemuxRouteZeroAlloc asserts the same path allocates nothing.
func BenchmarkFabricDemux(b *testing.B) {
	trunk := &stubTrunk{self: 1}
	d := NewDemux(trunk)
	sink := 0
	d.Port(3).SetReceiver(func(frame []byte) { sink += len(frame) })
	data := groupedDatagram(b, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trunk.recv(data)
	}
	_ = sink
	_ = d
}
