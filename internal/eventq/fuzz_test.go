package eventq

import (
	"testing"

	"dcqcn/internal/simtime"
)

// FuzzQueueOperations drives the heap with an arbitrary op tape against
// a reference model. Pops must return the pending minimum, and every
// popped header is released, so later pushes reuse headers. Cancels pick
// any handle ever issued: pending, fired, cancelled, or stale with its
// header now holding another event. Only a pending one may be removed;
// the rest must be no-ops.
func FuzzQueueOperations(f *testing.F) {
	f.Add([]byte{1, 5, 200, 0, 3, 0, 255, 9})
	f.Add([]byte{1, 5, 200, 250, 2, 7, 230, 251, 200, 252})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 512 {
			t.Skip()
		}
		var q Queue
		pending := map[Handle]simtime.Time{}
		var handles []Handle
		for i := 0; i < len(tape); i++ {
			op := tape[i]
			switch {
			case op < 170: // push with time from the next byte
				at := simtime.Time(op)
				if i+1 < len(tape) {
					at = simtime.Time(tape[i+1])
				}
				h := q.Push(at, func() {})
				if _, dup := pending[h]; dup {
					t.Fatal("push returned the handle of a pending event")
				}
				pending[h] = at
				handles = append(handles, h)
			case op < 220: // pop, verify minimality, release
				e := q.Pop()
				if len(pending) == 0 {
					if e != nil {
						t.Fatal("pop from empty returned event")
					}
					continue
				}
				if e == nil {
					t.Fatal("pop returned nil with pending events")
				}
				min := simtime.Forever
				for _, at := range pending {
					if at < min {
						min = at
					}
				}
				if e.At != min {
					t.Fatalf("pop %d, min pending %d", e.At, min)
				}
				h := Handle{e: e, gen: e.gen}
				if _, ok := pending[h]; !ok {
					t.Fatal("popped an event the model does not hold pending")
				}
				delete(pending, h)
				q.Release(e)
			default: // cancel any handle ever issued
				if len(handles) == 0 {
					continue
				}
				victim := handles[int(op)%len(handles)]
				_, live := pending[victim]
				if victim.Cancelled() == live {
					t.Fatalf("Cancelled() = %v for a handle the model holds pending = %v", victim.Cancelled(), live)
				}
				before := q.Len()
				q.Cancel(victim)
				delete(pending, victim)
				if want := before - btoi(live); q.Len() != want {
					t.Fatalf("cancel (pending %v) left %d events, want %d", live, q.Len(), want)
				}
				if !victim.Cancelled() {
					t.Fatal("cancelled handle still reports pending")
				}
			}
			for h := range pending {
				if h.Cancelled() {
					t.Fatal("a pending event's handle reports cancelled")
				}
			}
		}
		if q.Len() != len(pending) {
			t.Fatalf("queue length %d, tracked %d", q.Len(), len(pending))
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
