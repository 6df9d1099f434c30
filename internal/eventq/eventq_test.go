package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dcqcn/internal/simtime"
)

func TestPopOrder(t *testing.T) {
	var q Queue
	var got []int
	times := []simtime.Time{50, 10, 30, 20, 40}
	for i, at := range times {
		i := i
		q.Push(at, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		popRun(&q)
	}
	want := []int{1, 3, 2, 4, 0} // indices sorted by time
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d: got event %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Push(7, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		popRun(&q)
	}
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: pos %d got %d", i, got[i])
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := map[int]bool{}
	var handles []Handle
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, q.Push(simtime.Time(i), func() { fired[i] = true }))
	}
	q.Cancel(handles[0])
	q.Cancel(handles[5])
	q.Cancel(handles[9])
	q.Cancel(handles[5]) // double cancel is a no-op
	q.Cancel(Handle{})   // zero-handle cancel is a no-op
	for q.Len() > 0 {
		popRun(&q)
	}
	for _, i := range []int{0, 5, 9} {
		if fired[i] {
			t.Errorf("cancelled event %d fired", i)
		}
	}
	for _, i := range []int{1, 2, 3, 4, 6, 7, 8} {
		if !fired[i] {
			t.Errorf("event %d did not fire", i)
		}
	}
}

func TestCancelledStatus(t *testing.T) {
	var q Queue
	e := q.Push(1, func() {})
	if e.Cancelled() {
		t.Fatal("fresh event reports cancelled")
	}
	q.Cancel(e)
	if !e.Cancelled() {
		t.Fatal("cancelled event does not report cancelled")
	}
	e2 := q.Push(1, func() {})
	popped := q.Pop()
	if !e2.Cancelled() {
		t.Fatal("popped event does not report cancelled")
	}
	q.Release(popped)
	if !e2.Cancelled() {
		t.Fatal("released event does not report cancelled")
	}
	if !(Handle{}).Cancelled() {
		t.Fatal("zero handle does not report cancelled")
	}
}

// TestStaleHandleAfterReuse pins the generation rule: once a header is
// released and reused, the old handle reports cancelled and cancelling
// it leaves the header's new occupant scheduled.
func TestStaleHandleAfterReuse(t *testing.T) {
	for _, retire := range []string{"fired", "cancelled"} {
		t.Run(retire, func(t *testing.T) {
			var q Queue
			stale := q.Push(1, func() {})
			if retire == "fired" {
				q.Release(q.Pop())
			} else {
				q.Cancel(stale)
			}
			fired := false
			fresh := q.Push(2, func() { fired = true })
			if fresh.e != stale.e {
				t.Fatal("released header was not reused by the next push")
			}
			if !stale.Cancelled() {
				t.Fatal("stale handle reports pending after its header was reused")
			}
			q.Cancel(stale)
			if fresh.Cancelled() || q.Len() != 1 {
				t.Fatalf("cancelling a stale handle removed the header's new occupant (len %d)", q.Len())
			}
			popRun(&q)
			if !fired {
				t.Fatal("new occupant did not fire")
			}
		})
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Fatal("peek on empty queue should be nil")
	}
	q.Push(5, func() {})
	e := q.Push(3, func() {})
	if q.Peek() != e.e {
		t.Fatal("peek did not return earliest event")
	}
	if q.Len() != 2 {
		t.Fatal("peek must not remove events")
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if q.Pop() != nil {
		t.Fatal("pop on empty queue should be nil")
	}
}

// TestHeapProperty drives the queue with random pushes, pops and cancels
// and checks every pop returns the minimum of the currently-pending times.
func TestHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	pending := map[Handle]simtime.Time{}
	minPending := func() (simtime.Time, bool) {
		min, ok := simtime.Forever, false
		for _, at := range pending {
			if at <= min {
				min, ok = at, true
			}
		}
		return min, ok
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			at := simtime.Time(rng.Intn(1000))
			pending[q.Push(at, func() {})] = at
		case r < 8:
			want, any := minPending()
			e := q.Pop()
			if !any {
				if e != nil {
					t.Fatal("pop returned event from empty queue")
				}
				continue
			}
			if e == nil {
				t.Fatal("pop returned nil with pending events")
			}
			if e.At != want {
				t.Fatalf("pop returned %d, min pending is %d", e.At, want)
			}
			delete(pending, Handle{e: e, gen: e.gen})
			q.Release(e)
		default:
			for h := range pending { // random map iteration picks a victim
				q.Cancel(h)
				delete(pending, h)
				break
			}
		}
	}
}

// TestQuickSortedDrain property: pushing any set of times and draining the
// queue yields those times sorted.
func TestQuickSortedDrain(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		for _, v := range times {
			q.Push(simtime.Time(v), func() {})
		}
		want := make([]simtime.Time, len(times))
		for i, v := range times {
			want[i] = simtime.Time(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; q.Len() > 0; i++ {
			e := q.Pop()
			if e.At != want[i] {
				return false
			}
			q.Release(e)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(42))
	fn := func() {}
	for i := 0; i < b.N; i++ {
		q.Push(simtime.Time(rng.Int63n(1e12)), fn)
		if q.Len() > 1024 {
			q.Release(q.Pop())
		}
	}
}

// popRun pops the earliest event, releases its header and runs it, as
// the engine's run loop does.
func popRun(q *Queue) {
	e := q.Pop()
	fn := e.Fn
	q.Release(e)
	fn()
}
