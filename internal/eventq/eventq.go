// Package eventq provides the deterministic priority queue that drives the
// discrete-event simulator.
//
// Events are ordered by timestamp; events with equal timestamps fire in a
// deterministic order given by a three-part key the engine assigns. The key
// is designed to be *mode-independent*: the sharded parallel runtime
// (internal/parallel) executes each topology shard on its own queue, and
// any ordering rule based on a single global insertion counter would differ
// between the sequential and sharded runs. Instead, equal-time events are
// ordered by
//
//	(class, k1, k2)
//
// where class separates control-plane events (scenario tickers, fault
// transitions), link-arrival events, and local model events; link arrivals
// carry an intrinsic (link direction ID, per-direction frame sequence) key;
// and local events carry a per-queue scheduling ordinal. Each component of
// the key is reproducible whether the model runs on one queue or many,
// which is what makes whole simulations — sequential or sharded —
// bit-identical.
//
// Event headers are pooled. The queue owns every header: Push takes one
// from an intrusive free list (allocating only on a pool miss) and
// returns a Handle, a (header, generation) pair. A popped header still
// belongs to the queue; the caller reads At and Fn and hands it back
// with Release before running Fn, so the callback's own scheduling can
// reuse it. Cancel releases the header itself. Every release bumps the
// header's generation, which is the rule that keeps handles safe: a
// Handle whose generation no longer matches its header refers to an
// event that fired or was cancelled, so Cancelled reports true and
// Cancel is a no-op — even after the header has been reused by an
// unrelated event.
package eventq

import "dcqcn/internal/simtime"

// Event classes, in execution order at equal timestamps. Control events
// fire first so that measurements and fault transitions observe the state
// *before* same-instant model activity — the same order the sharded
// runtime naturally produces, because control turns are stop-the-world
// and run before the window that executes the model events sharing their
// timestamp. Link arrivals precede local model events: an arrival is the
// continuation of a departure the far end already committed, so it keeps
// seniority over work scheduled at its own destination — and its
// intrinsic (direction, sequence) key lets the sharded runtime inject it
// at a window boundary into exactly the slot a sequential run would have
// used.
const (
	ClassControl uint8 = iota // scenario/harness/fault-injection events
	ClassArrival              // frame arrivals at the far end of a link
	ClassLocal                // everything a model component schedules
)

// Key orders events that share a timestamp.
type Key struct {
	Class  uint8
	K1, K2 uint64
}

// Event is a callback scheduled to run at a point in simulated time. Its
// header belongs to the Queue that scheduled it; hold a Handle, not an
// *Event, to refer to a pending event.
type Event struct {
	At simtime.Time
	Fn func()

	key   Key
	index int    // heap index, -1 once popped or cancelled
	gen   uint64 // bumped on every release; see Handle
	next  *Event // free-list link while released
}

// Key returns the event's equal-time ordering key (exposed for tests).
func (e *Event) Key() Key { return e.key }

// Handle refers to one scheduled event. The zero Handle refers to none.
// A handle stays valid for as long as its event is pending; once the
// event fires or is cancelled its header returns to the queue's free
// list with a new generation, and the stale handle can neither observe
// nor cancel whatever event reuses the header.
type Handle struct {
	e   *Event
	gen uint64
}

// Cancelled reports whether the event is no longer pending: it fired,
// was cancelled, or the handle is the zero Handle. Callers keep their
// "timer armed" state as !h.Cancelled().
//
//hot:path
func (h Handle) Cancelled() bool { return h.e == nil || h.e.gen != h.gen || h.e.index < 0 }

// Queue is a binary min-heap of events plus the free list of released
// headers. The zero value is an empty queue ready for use. Queue is not
// safe for concurrent use; each simulator core is single-threaded by
// design, and the parallel runtime gives every shard its own queue.
type Queue struct {
	heap []*Event
	free *Event // released headers, linked through Event.next
	ord  uint64 // insertion ordinal for the convenience Push
}

// Len returns the number of pending events.
//
//hot:path
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn at time at as a local-class event whose equal-time
// order is the insertion order (FIFO), and returns a handle that can be
// passed to Cancel. The engine supplies richer keys via PushKeyed; direct
// queue users get the classic deterministic FIFO tie-break.
//
//hot:path
func (q *Queue) Push(at simtime.Time, fn func()) Handle {
	k := Key{Class: ClassLocal, K1: q.ord}
	q.ord++
	return q.PushKeyed(at, k, fn)
}

// PushKeyed schedules fn at time at with the given equal-time key and
// returns a handle that can be passed to Cancel.
//
//hot:path
func (q *Queue) PushKeyed(at simtime.Time, key Key, fn func()) Handle {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
		e.At, e.Fn, e.key = at, fn, key
	} else {
		// Pool miss: the free list is empty only until the queue has
		// reached its peak depth, so steady state never gets here. The
		// escape is budgeted in escape.golden.
		e = &Event{At: at, Fn: fn, key: key}
	}
	e.index = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.index)
	return Handle{e: e, gen: e.gen}
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty. The header still belongs to the queue: read At and Fn, then
// Release it (before calling Fn, so Fn's own scheduling can reuse it).
//
//hot:path
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

// Release returns a popped event's header to the free list and
// invalidates every Handle to it. Release each popped header exactly
// once, and do not touch it afterwards.
//
//hot:path
func (q *Queue) Release(e *Event) {
	e.gen++
	e.Fn = nil
	e.next = q.free
	q.free = e
}

// Peek returns the earliest event without removing it, or nil if empty.
//
//hot:path
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Cancel removes a pending event from the queue and releases its header.
// Cancelling the zero Handle, or a handle whose event already fired or
// was cancelled, is a no-op, so callers can cancel timers
// unconditionally.
//
//hot:path
func (q *Queue) Cancel(h Handle) {
	if h.Cancelled() {
		return
	}
	e := h.e
	i := e.index
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	e.index = -1
	q.Release(e)
}

// Less reports whether key a orders before key b at equal timestamps.
//
//hot:path
func Less(a, b Key) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.K1 != b.K1 {
		return a.K1 < b.K1
	}
	return a.K2 < b.K2
}

//hot:path
func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return Less(a.key, b.key)
}

//hot:path
func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

//hot:path
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

//hot:path
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}
