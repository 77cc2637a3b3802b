package main

import (
	"sync"
	"sync/atomic"
	"time"

	"timewheel"
)

// sampleEvery is the tracing sample rate: one proposal, transport call
// or datagram in sampleEvery gets a span (counts are always exact).
const sampleEvery = 16

// maxDatagramSamples bounds the received datagrams a tap keeps for the
// post-run wire replay.
const maxDatagramSamples = 2048

// ioSpan is one sampled transport call, kept compact until the run ends.
type ioSpan struct {
	start, end int64 // ns since the run's epoch
	bytes      int32
	datagrams  int16
	recv       bool
}

// tap counts and times everything that crosses one node's transport
// boundary while the measured window is open. It only exists in the
// traced pass: the untraced pass hands the node its bare transport.
type tap struct {
	peers  int // datagrams one Broadcast puts on the wire
	clock  func() int64
	active *atomic.Bool

	sendCalls, sendDatagrams, sendBytes, sendNs, sendErrs atomic.Int64
	recvDatagrams, recvNs                                 atomic.Int64

	sendTick, recvTick atomic.Int64 // every sampleEvery-th call gets a span

	mu      sync.Mutex
	spans   []ioSpan
	samples [][]byte
}

func (t *tap) sent(start int64, datagrams, bytes int, err error) {
	end := t.clock()
	t.sendCalls.Add(1)
	t.sendDatagrams.Add(int64(datagrams))
	t.sendBytes.Add(int64(bytes))
	t.sendNs.Add(end - start)
	if err != nil {
		t.sendErrs.Add(1)
	}
	if t.sendTick.Add(1)%sampleEvery == 0 {
		t.mu.Lock()
		t.spans = append(t.spans, ioSpan{start: start, end: end, bytes: int32(bytes), datagrams: int16(datagrams)})
		t.mu.Unlock()
	}
}

// tracedTransport wraps the Transport a node is given. Frames are
// coalesced below this boundary, so a datagram carries no proposal id.
type tracedTransport struct {
	inner timewheel.Transport
	tap   *tap
}

func (w *tracedTransport) Broadcast(data []byte) error {
	if !w.tap.active.Load() {
		return w.inner.Broadcast(data)
	}
	start := w.tap.clock()
	err := w.inner.Broadcast(data)
	w.tap.sent(start, w.tap.peers, len(data)*w.tap.peers, err)
	return err
}

func (w *tracedTransport) Unicast(to int, data []byte) error {
	if !w.tap.active.Load() {
		return w.inner.Unicast(to, data)
	}
	start := w.tap.clock()
	err := w.inner.Unicast(to, data)
	w.tap.sent(start, 1, len(data), err)
	return err
}

func (w *tracedTransport) SetReceiver(r func([]byte)) {
	t := w.tap
	w.inner.SetReceiver(func(data []byte) {
		if !t.active.Load() {
			r(data)
			return
		}
		start := t.clock()
		r(data)
		end := t.clock()
		t.recvDatagrams.Add(1)
		t.recvNs.Add(end - start)
		if t.recvTick.Add(1)%sampleEvery == 0 {
			t.mu.Lock()
			t.spans = append(t.spans, ioSpan{start: start, end: end, bytes: int32(len(data)), datagrams: 1, recv: true})
			if len(t.samples) < maxDatagramSamples {
				// The transport only lends the buffer for the call.
				t.samples = append(t.samples, append([]byte(nil), data...))
			}
			t.mu.Unlock()
		}
	})
}

func (w *tracedTransport) Close() error { return w.inner.Close() }

// tracedBatchTransport adds the optional interfaces the UDP transport
// offers, so the node picks the same send path with and without tracing.
type tracedBatchTransport struct {
	tracedTransport
	batch timewheel.BatchSender
	errs  func() uint64
}

func (w *tracedBatchTransport) SendBatch(msgs []timewheel.BatchMessage) error {
	if !w.tap.active.Load() {
		return w.batch.SendBatch(msgs)
	}
	bytes := 0
	for i := range msgs {
		bytes += len(msgs[i].Data)
	}
	start := w.tap.clock()
	err := w.batch.SendBatch(msgs)
	w.tap.sent(start, len(msgs), bytes, err)
	return err
}

func (w *tracedBatchTransport) SendErrors() uint64 { return w.errs() }

// wrapTransport puts a tap in front of inner, preserving BatchSender and
// the send-error counter when inner has them.
func wrapTransport(inner timewheel.Transport, t *tap) timewheel.Transport {
	base := tracedTransport{inner: inner, tap: t}
	bs, isBatch := inner.(timewheel.BatchSender)
	se, hasErrs := inner.(interface{ SendErrors() uint64 })
	if isBatch && hasErrs {
		return &tracedBatchTransport{tracedTransport: base, batch: bs, errs: se.SendErrors}
	}
	return &base
}

// nowFunc returns a clock reading ns since epoch on the monotonic clock.
func nowFunc(epoch time.Time) func() int64 {
	return func() int64 { return int64(time.Since(epoch)) }
}
