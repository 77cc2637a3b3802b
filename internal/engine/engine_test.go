package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timewheel/internal/member"
	"timewheel/internal/wire"
)

func waitHandled(t *testing.T, e Engine, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Handled() < want {
		if time.Now().After(deadline) {
			t.Fatalf("handled %d of %d before timeout", e.Handled(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func engines(h Handler) map[string]Engine {
	return map[string]Engine{
		"event-loop": NewEventLoop(h, 0),
		"threaded":   NewThreaded(h, 0),
	}
}

func TestAllEventsDispatched(t *testing.T) {
	for name := range engines(nil) {
		name := name
		t.Run(name, func(t *testing.T) {
			var count atomic.Uint64
			var e Engine
			h := func(Event) { count.Add(1) }
			if name == "event-loop" {
				e = NewEventLoop(h, 10_000)
			} else {
				e = NewThreaded(h, 10_000)
			}
			const n = 10_000
			for i := 0; i < n; i++ {
				if !e.Post(Event{Type: EventType(i % NumEventTypes)}) {
					t.Fatalf("post %d rejected with depth %d", i, n)
				}
			}
			waitHandled(t, e, n)
			e.Stop()
			if count.Load() != n {
				t.Fatalf("handled %d", count.Load())
			}
			if e.Dropped() != 0 {
				t.Fatalf("dropped %d with a large enough queue", e.Dropped())
			}
		})
	}
}

func TestHandlerNeverRunsConcurrently(t *testing.T) {
	for name := range engines(nil) {
		name := name
		t.Run(name, func(t *testing.T) {
			var inHandler atomic.Int32
			var overlaps atomic.Int32
			h := func(Event) {
				if inHandler.Add(1) > 1 {
					overlaps.Add(1)
				}
				for i := 0; i < 50; i++ {
					_ = i * i
				}
				inHandler.Add(-1)
			}
			var e Engine
			const posters, per = 8, 500
			if name == "event-loop" {
				e = NewEventLoop(h, posters*per)
			} else {
				e = NewThreaded(h, posters*per)
			}
			var wg sync.WaitGroup
			for p := 0; p < posters; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						e.Post(Event{Type: EventType((p + i) % NumEventTypes)})
					}
				}()
			}
			wg.Wait()
			waitHandled(t, e, posters*per)
			e.Stop()
			if overlaps.Load() != 0 {
				t.Fatalf("%d concurrent handler executions", overlaps.Load())
			}
		})
	}
}

func TestEventLoopPreservesFIFO(t *testing.T) {
	var got []int
	const n = 1000
	e := NewEventLoop(func(ev Event) { got = append(got, int(ev.Type)) }, n)
	for i := 0; i < n; i++ {
		e.Post(Event{Type: EventType(i % NumEventTypes)})
	}
	waitHandled(t, e, n)
	e.Stop()
	for i, v := range got {
		if v != i%NumEventTypes {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestThreadedPreservesPerTypeFIFO(t *testing.T) {
	perType := make(map[EventType][]int)
	const n = 3000
	e := NewThreaded(func(ev Event) {
		// The engine serialises handler execution, so no extra locking.
		ev.Cmd()
	}, n)
	for i := 0; i < n; i++ {
		i := i
		ty := EventType(i % NumEventTypes)
		e.Post(Event{Type: ty, Cmd: func() { perType[ty] = append(perType[ty], i) }})
	}
	waitHandled(t, e, n)
	e.Stop()
	for ty, seq := range perType {
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("type %d: per-type FIFO broken", ty)
			}
		}
	}
}

func TestStopIsIdempotentAndDropsLatePosts(t *testing.T) {
	for name := range engines(nil) {
		name := name
		t.Run(name, func(t *testing.T) {
			var e Engine
			h := func(Event) {}
			if name == "event-loop" {
				e = NewEventLoop(h, 0)
			} else {
				e = NewThreaded(h, 0)
			}
			e.Post(Event{})
			e.Stop()
			e.Stop() // idempotent
			before := e.Handled()
			if e.Post(Event{}) {
				t.Fatalf("post after stop was accepted")
			}
			time.Sleep(time.Millisecond)
			if e.Handled() != before {
				t.Fatalf("post after stop was handled")
			}
			if e.Dropped() != 0 {
				t.Fatalf("post after stop counted as an overflow drop")
			}
		})
	}
}

func TestPostOnFullQueueDropsAndCounts(t *testing.T) {
	for name := range engines(nil) {
		name := name
		t.Run(name, func(t *testing.T) {
			// A gate blocks the first handler so nothing drains: with
			// depth 1 the queue holds exactly one more event and every
			// further Post must be rejected and counted, not block.
			gate := make(chan struct{})
			started := make(chan struct{}, 1)
			h := func(Event) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-gate
			}
			var e Engine
			if name == "event-loop" {
				e = NewEventLoop(h, 1)
			} else {
				e = NewThreaded(h, 1)
			}
			if !e.Post(Event{Type: EvCommand}) {
				t.Fatalf("first post rejected")
			}
			<-started // handler is now stalled on the gate
			if !e.Post(Event{Type: EvCommand}) {
				t.Fatalf("post into empty depth-1 queue rejected")
			}
			const extra = 5
			for i := 0; i < extra; i++ {
				done := make(chan bool, 1)
				go func() { done <- e.Post(Event{Type: EvCommand}) }()
				select {
				case ok := <-done:
					if ok {
						t.Fatalf("post %d accepted on a full queue", i)
					}
				case <-time.After(time.Second):
					t.Fatalf("post %d blocked on a full queue", i)
				}
			}
			if got := e.Dropped(); got != extra {
				t.Fatalf("Dropped() = %d, want %d", got, extra)
			}
			close(gate)
			waitHandled(t, e, 2)
			e.Stop()
		})
	}
}

func TestTypeMappings(t *testing.T) {
	cases := []struct {
		m    wire.Message
		want EventType
	}{
		{&wire.Proposal{}, EvProposal},
		{&wire.Decision{}, EvDecision},
		{&wire.NoDecision{}, EvNoDecision},
		{&wire.Join{}, EvJoin},
		{&wire.Reconfig{}, EvReconfig},
		{&wire.Nack{}, EvNack},
		{&wire.State{}, EvState},
	}
	for _, c := range cases {
		if got := TypeOfMessage(c.m); got != c.want {
			t.Errorf("TypeOfMessage(%T) = %d, want %d", c.m, got, c.want)
		}
	}
	if TypeOfTimer(member.TimerExpect) != EvTimerExpect ||
		TypeOfTimer(member.TimerDecide) != EvTimerDecide ||
		TypeOfTimer(member.TimerSlot) != EvTimerSlot {
		t.Errorf("timer mappings wrong")
	}
	if NumEventTypes != 11 {
		t.Errorf("NumEventTypes = %d", NumEventTypes)
	}
}

func TestThreadedOutOfRangeTypeRoutesToCommand(t *testing.T) {
	var count atomic.Uint64
	e := NewThreaded(func(Event) { count.Add(1) }, 0)
	e.Post(Event{Type: EventType(200)})
	waitHandled(t, e, 1)
	e.Stop()
}

// TestPostHandledZeroAllocs pins the dispatch round trip at 0 allocs/op
// on every engine: an Event travels by value through the queue, so
// posting one and waiting until it is handled must not touch the heap.
// The sharded case posts to one of eight engines on a four-shard pool,
// the fabric's layout of many groups on few cores.
func TestPostHandledZeroAllocs(t *testing.T) {
	nop := func(Event) {}
	loop := NewEventLoop(nop, 4096)
	defer loop.Stop()
	threaded := NewThreaded(nop, 512)
	defer threaded.Stop()
	pool := NewPool(4, 4096)
	defer pool.Close()
	sharded := make([]Engine, 8)
	for i := range sharded {
		sharded[i] = pool.Engine(i, nop)
		defer sharded[i].Stop()
	}

	n := 0
	roundTrip := func(e Engine) {
		n++
		want := e.Handled() + 1
		for !e.Post(Event{Type: EventType(n % NumEventTypes)}) {
			runtime.Gosched()
		}
		for e.Handled() < want {
			runtime.Gosched()
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"event-loop", func() { roundTrip(loop) }},
		{"threaded", func() { roundTrip(threaded) }},
		{"sharded", func() { roundTrip(sharded[n%len(sharded)]) }},
	} {
		if a := testing.AllocsPerRun(1000, tc.fn); a != 0 {
			t.Errorf("%s: Post->Handled allocates %.1f per run, want 0", tc.name, a)
		}
	}
}
