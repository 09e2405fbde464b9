package sim

import (
	"container/heap"
	"errors"
)

// Event is a unit of work on the virtual timeline. Fire is invoked when the
// event loop reaches the event's time; it may schedule further events.
type Event struct {
	At   Time
	Fire func(now Time)

	seq int // tie-breaker: FIFO among equal-time events
	idx int // heap index, -1 when not queued
}

// eventHeap implements container/heap ordering by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Loop is a single-threaded discrete-event loop. The zero value is ready to
// use. Determinism: events at equal times fire in scheduling order.
type Loop struct {
	clock  Clock
	events eventHeap
	nextID int
}

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// Now returns the loop's current virtual time.
func (l *Loop) Now() Time { return l.clock.Now() }

// Schedule queues fn to fire at absolute time at. It returns ErrPast if at
// precedes the current time.
func (l *Loop) Schedule(at Time, fn func(now Time)) error {
	if at < l.clock.Now() {
		return ErrPast
	}
	e := &Event{At: at, Fire: fn, seq: l.nextID}
	l.nextID++
	heap.Push(&l.events, e)
	return nil
}

// After queues fn to fire d after the current time. Negative d is clamped
// to zero (fires "now", after already-queued events at the same time).
func (l *Loop) After(d Time, fn func(now Time)) {
	if d < 0 {
		d = 0
	}
	// Scheduling relative to now can never be in the past.
	_ = l.Schedule(l.clock.Now()+d, fn)
}

// Step fires the single earliest event. It reports false when the queue is
// empty.
func (l *Loop) Step() bool {
	if len(l.events) == 0 {
		return false
	}
	e := heap.Pop(&l.events).(*Event)
	l.clock.Advance(e.At)
	e.Fire(e.At)
	return true
}

// Run fires events until the queue is empty.
func (l *Loop) Run() {
	for l.Step() {
	}
}
