package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventType classifies protocol trace events.
type EventType uint8

const (
	// EvStateChange: A=from state, B=to state (member.State values).
	EvStateChange EventType = iota + 1
	// EvViewInstall: A=view sequence, B=member count.
	EvViewInstall
	// EvDeciderStart marks assuming the decider role.
	EvDeciderStart
	// EvDeciderEnd: A=1 when the tenure produced a decision; B says how
	// that decision went out (DeciderHeld, DeciderEarlyOrdering,
	// DeciderEarlyAckOnly or DeciderEarlyRelease).
	EvDeciderEnd
	// EvElectionStart: A=the state entered (1-failure or n-failure).
	EvElectionStart
	// EvElectionEnd: A=duration in nanoseconds.
	EvElectionEnd
	// EvSuspicion: A=suspected process, B=reaction lag past the ts+2D
	// deadline in nanoseconds.
	EvSuspicion
	// EvGuardTrip marks the timeliness guard tripping.
	EvGuardTrip
	// EvGuardRearm marks the guard rearming after a self-exclusion.
	EvGuardRearm
	// EvSelfExclude marks a guard-driven drop to the join state.
	EvSelfExclude
	// EvWALSync: A=fsync duration in nanoseconds.
	EvWALSync
	// EvSnapshot: A=snapshot size in bytes.
	EvSnapshot
	// EvQueueDrop marks an event rejected by the engine's full queue.
	EvQueueDrop
	// EvExpectOverwrite: the failure detector replaced a still-armed
	// expectation; A=previous expected sender, B=new expected sender.
	EvExpectOverwrite
	// EvWireSend: a protocol message left this node. A=the causal
	// context's originating send timestamp, B=PackWireMeta(kind, peer,
	// origin, slot) where peer is the unicast destination (or
	// WirePeerBroadcast).
	EvWireSend
	// EvWireRecv: a protocol message arrived. A and B as in EvWireSend,
	// with peer = the sender.
	EvWireRecv
	// EvDeliver: the broadcast layer delivered an update to the
	// application. A=ordinal, B=PackProposalID(proposer, seq).
	EvDeliver
	// EvInvariant: the live auditor observed an invariant violation;
	// A=auditor-specific invariant code.
	EvInvariant
	// EvBlackbox: a flight-recorder bundle was written; A=trigger reason
	// code.
	EvBlackbox
)

// The B payload of EvDeciderEnd: how the tenure's decision went out.
const (
	DeciderHeld          = 0 // after the idle hold
	DeciderEarlyOrdering = 1 // early, to order a proposal
	DeciderEarlyAckOnly  = 2 // early, only to publish an awaited ack
	DeciderEarlyRelease  = 3 // early, at a time-ordered update's settle point
)

func (t EventType) String() string {
	switch t {
	case EvStateChange:
		return "state-change"
	case EvViewInstall:
		return "view-install"
	case EvDeciderStart:
		return "decider-start"
	case EvDeciderEnd:
		return "decider-end"
	case EvElectionStart:
		return "election-start"
	case EvElectionEnd:
		return "election-end"
	case EvSuspicion:
		return "suspicion"
	case EvGuardTrip:
		return "guard-trip"
	case EvGuardRearm:
		return "guard-rearm"
	case EvSelfExclude:
		return "self-exclude"
	case EvWALSync:
		return "wal-sync"
	case EvSnapshot:
		return "snapshot"
	case EvQueueDrop:
		return "queue-drop"
	case EvExpectOverwrite:
		return "expect-overwrite"
	case EvWireSend:
		return "wire-send"
	case EvWireRecv:
		return "wire-recv"
	case EvDeliver:
		return "deliver"
	case EvInvariant:
		return "invariant"
	case EvBlackbox:
		return "blackbox"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// WirePeerBroadcast marks a wire-send event with no single destination.
const WirePeerBroadcast = 0xffff

// PackWireMeta packs the metadata of a wire send/recv event into the
// event's B argument: message kind (8 bits), peer (16 bits — unicast
// destination or sender, WirePeerBroadcast for broadcasts), causal
// origin member (16 bits), and causal wheel slot (24 bits, truncated).
// Scalar packing keeps the emit path allocation-free.
func PackWireMeta(kind uint8, peer, origin uint16, slot uint32) int64 {
	return int64(uint64(kind) |
		uint64(peer)<<8 |
		uint64(origin)<<24 |
		uint64(slot&0xffffff)<<40)
}

// UnpackWireMeta is the inverse of PackWireMeta.
func UnpackWireMeta(v int64) (kind uint8, peer, origin uint16, slot uint32) {
	u := uint64(v)
	return uint8(u), uint16(u >> 8), uint16(u >> 24), uint32(u>>40) & 0xffffff
}

// PackProposalID packs a proposal identity (proposer, low 32 bits of
// the per-proposer sequence) into the B argument of a deliver event.
func PackProposalID(proposer uint32, seq uint64) int64 {
	return int64(uint64(proposer)<<32 | seq&0xffffffff)
}

// UnpackProposalID is the inverse of PackProposalID.
func UnpackProposalID(v int64) (proposer uint32, seq uint32) {
	return uint32(uint64(v) >> 32), uint32(uint64(v))
}

// Event is one protocol trace event. All fields are scalars so emitting
// never allocates.
type Event struct {
	// Seq is the tracer-global sequence number (dense, starts at 0).
	Seq uint64
	// TS is the wall-clock emit time in Unix nanoseconds.
	TS int64
	// Node is the emitting process ID.
	Node int32
	// Type discriminates the event; A and B are its type-specific
	// arguments (see the EventType constants).
	Type EventType
	A, B int64
}

// Time returns the emit time.
func (e Event) Time() time.Time { return time.Unix(0, e.TS) }

// slot is one ring cell, versioned as a per-slot seqlock: a writer
// stores 2*seq+1 before writing the payload and 2*seq+2 after, so a
// reader can detect both torn writes and overwrites without locking.
// Every payload field is an atomic so concurrent wrap-around writers
// and lock-free readers are race-free by the memory model, not just in
// practice.
type slot struct {
	ver  atomic.Uint64
	ts   atomic.Int64
	meta atomic.Uint64 // node (upper 32 bits) | type (low 8 bits)
	a, b atomic.Int64
}

func (s *slot) load(seq uint64) Event {
	meta := s.meta.Load()
	return Event{
		Seq:  seq,
		TS:   s.ts.Load(),
		Node: int32(meta >> 32),
		Type: EventType(meta & 0xff),
		A:    s.a.Load(),
		B:    s.b.Load(),
	}
}

// Tracer is a ring-buffered, multi-subscriber protocol event tracer.
//
// Emit is called from protocol hot paths: when no subscriber is
// attached (subs == 0) it is a single atomic load and returns — zero
// allocations, sub-nanosecond-amortised cost. With subscribers, the
// writer claims a slot with one atomic add and fills it under the
// slot's seqlock; concurrent emitters never block each other, and a
// reader that races an overwrite simply skips the torn slot.
type sinkEntry struct{ fn func(Event) }

type Tracer struct {
	seq  atomic.Uint64
	subs atomic.Int32 // ring enables + attached sinks
	ring []slot
	mask uint64

	mu    sync.Mutex
	sinks atomic.Pointer[[]*sinkEntry]
}

// NewTracer creates a tracer whose ring holds size events (rounded up
// to a power of two; minimum 64).
func NewTracer(size int) *Tracer {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Tracer{ring: make([]slot, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return len(t.ring) }

// Enabled reports whether any subscriber is attached.
func (t *Tracer) Enabled() bool { return t != nil && t.subs.Load() > 0 }

// Emit records one event if anyone is listening. Safe from any
// goroutine; never blocks; allocates nothing.
func (t *Tracer) Emit(typ EventType, node int32, a, b int64) {
	if t == nil || t.subs.Load() == 0 {
		return
	}
	seq := t.seq.Add(1) - 1
	s := &t.ring[seq&t.mask]
	s.ver.Store(2*seq + 1)
	ts := time.Now().UnixNano()
	s.ts.Store(ts)
	s.meta.Store(uint64(uint32(node))<<32 | uint64(typ))
	s.a.Store(a)
	s.b.Store(b)
	s.ver.Store(2*seq + 2)
	if sinks := t.sinks.Load(); sinks != nil {
		ev := Event{Seq: seq, TS: ts, Node: node, Type: typ, A: a, B: b}
		for _, e := range *sinks {
			e.fn(ev)
		}
	}
}

// EnableRing turns ring recording on (refcounted) without attaching a
// sink — the consumption model of the /debug/events endpoint, which
// reads the ring on demand. The returned func undoes it.
func (t *Tracer) EnableRing() (disable func()) {
	t.subs.Add(1)
	var once sync.Once
	return func() { once.Do(func() { t.subs.Add(-1) }) }
}

// Attach subscribes a sink called synchronously from every emitter's
// goroutine — keep it fast and non-blocking. The returned func detaches
// it.
func (t *Tracer) Attach(sink func(Event)) (detach func()) {
	entry := &sinkEntry{fn: sink}
	t.mu.Lock()
	var next []*sinkEntry
	if old := t.sinks.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, entry)
	t.sinks.Store(&next)
	t.subs.Add(1)
	t.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			if cur := t.sinks.Load(); cur != nil {
				repl := make([]*sinkEntry, 0, len(*cur))
				for _, e := range *cur {
					if e != entry {
						repl = append(repl, e)
					}
				}
				t.sinks.Store(&repl)
			}
			t.subs.Add(-1)
			t.mu.Unlock()
		})
	}
}

// Dropped returns how many emitted events are no longer in the ring —
// they were overwritten before any reader could have fetched them at
// the current head. Monotone; the overflow accounting behind the
// timewheel_trace_dropped_total counter.
func (t *Tracer) Dropped() uint64 {
	head := t.seq.Load()
	if head <= uint64(len(t.ring)) {
		return 0
	}
	return head - uint64(len(t.ring))
}

// Since returns the events with sequence >= from that are still in the
// ring, in order, and the next cursor to poll with. Slots torn by a
// racing writer are skipped. With from far behind the head, only the
// newest Cap() events are returned; truncated reports that overwritten
// events were skipped, so consumers (and merged cluster timelines) are
// honest about the gap.
func (t *Tracer) Since(from uint64) (events []Event, next uint64, truncated bool) {
	head := t.seq.Load()
	if head == 0 {
		return nil, 0, false
	}
	lo := from
	if head > uint64(len(t.ring)) && lo < head-uint64(len(t.ring)) {
		lo = head - uint64(len(t.ring))
		truncated = true
	}
	for seq := lo; seq < head; seq++ {
		s := &t.ring[seq&t.mask]
		if s.ver.Load() != 2*seq+2 {
			continue // torn or already overwritten
		}
		ev := s.load(seq)
		if s.ver.Load() != 2*seq+2 {
			continue // overwritten while copying
		}
		events = append(events, ev)
	}
	return events, head, truncated
}
