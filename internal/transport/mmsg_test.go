package transport

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"timewheel/internal/model"
)

// collectingReceiver copies delivered frames (the on-loan contract says
// we must not retain the buffer).
type collectingReceiver struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collectingReceiver) deliver(b []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), b...))
	c.mu.Unlock()
}

func (c *collectingReceiver) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func udpPair(t *testing.T) (*UDP, *UDP, *collectingReceiver) {
	t.Helper()
	a, err := NewUDP(0, map[model.ProcessID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDP(1, map[model.ProcessID]string{
		1: "127.0.0.1:0",
		0: a.LocalAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	sink := &collectingReceiver{}
	a.SetReceiver(sink.deliver)
	return a, b, sink
}

func waitFrames(t *testing.T, sink *collectingReceiver, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d frames before timeout", sink.count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// SendBatch must deliver every datagram intact — on linux via one
// sendmmsg, elsewhere via the portable loop; the test is identical.
func TestSendBatchDelivers(t *testing.T) {
	_, b, sink := udpPair(t)

	const k = 12
	msgs := make([]BatchMsg, k)
	for i := range msgs {
		msgs[i] = BatchMsg{To: 0, Data: []byte(fmt.Sprintf("frame-%02d-padding-to-make-it-nontrivial", i))}
	}
	if err := b.SendBatch(msgs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	waitFrames(t, sink, k)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	seen := map[string]bool{}
	for _, f := range sink.frames {
		seen[string(f)] = true
	}
	for i := range msgs {
		if !seen[string(msgs[i].Data)] {
			t.Fatalf("frame %d not delivered intact", i)
		}
	}
	if got := b.SendErrors(); got != 0 {
		t.Fatalf("SendErrors = %d after clean batch", got)
	}
}

func TestSendBatchCountsUnknownPeer(t *testing.T) {
	_, b, sink := udpPair(t)

	msgs := []BatchMsg{
		{To: 0, Data: []byte("good")},
		{To: 42, Data: []byte("no such peer")},
	}
	if err := b.SendBatch(msgs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	waitFrames(t, sink, 1)
	if got := b.SendErrors(); got != 1 {
		t.Fatalf("SendErrors = %d, want 1 (unknown peer)", got)
	}
}

func TestBroadcastDeliversAndCountsNothing(t *testing.T) {
	_, b, sink := udpPair(t)

	for i := 0; i < 5; i++ {
		if err := b.Broadcast([]byte("bcast")); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
	}
	waitFrames(t, sink, 5)
	if got := b.SendErrors(); got != 0 {
		t.Fatalf("SendErrors = %d after clean broadcasts", got)
	}
}

// TestSendBatchZeroAllocs pins the batched send path at 0 allocs/op: a
// four-destination flush reuses the pre-resolved peer sockaddrs and the
// iovec/mmsghdr arrays. Only the sendmmsg path of 64-bit linux makes
// that claim; the portable per-datagram loop does not.
func TestSendBatchZeroAllocs(t *testing.T) {
	if runtime.GOOS != "linux" || (runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64") {
		t.Skip("sendmmsg path is linux/amd64 and linux/arm64 only")
	}
	const peers = 4
	addrs := map[model.ProcessID]string{0: "127.0.0.1:0"}
	for i := 1; i <= peers; i++ {
		rx, err := NewUDP(model.ProcessID(i), map[model.ProcessID]string{model.ProcessID(i): "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rx.Close() })
		rx.SetReceiver(func([]byte) {})
		addrs[model.ProcessID(i)] = rx.LocalAddr()
	}
	tx, err := NewUDP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	payload := make([]byte, 256)
	msgs := make([]BatchMsg, peers)
	for i := range msgs {
		msgs[i] = BatchMsg{To: model.ProcessID(i + 1), Data: payload}
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := tx.SendBatch(msgs); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("SendBatch to %d peers allocates %.1f per run, want 0", peers, a)
	}
}
