//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// steady-state push/pop/release cycle of the event queue allocates
// nothing. Released headers go back on the queue's free list and the
// next push takes them, so PushKeyed's &Event{...} (recorded in
// escape.golden) runs only on a pool miss while the queue grows. This
// test pins how many times that escape happens per operation; the
// escape audit pins where. The race detector perturbs allocation
// counts, so the budget only runs in non-race builds; `make race` still
// compiles and runs everything else here.

package eventq

import (
	"testing"

	"dcqcn/internal/simtime"
)

func TestAllocBudgetPushPop(t *testing.T) {
	var q Queue
	fn := func() {}
	// Warm the heap's backing array and the free list past the sizes the
	// measured cycle will see, so neither grows inside the measurement.
	for i := 0; i < 1024; i++ {
		q.Push(simtime.Time(i), fn)
	}
	for q.Len() > 512 {
		q.Release(q.Pop())
	}

	base := simtime.Time(1 << 30)
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		q.Push(base.Add(simtime.Duration(i)), fn)
		q.Cancel(q.Push(base.Add(simtime.Duration(i)), fn))
		q.Release(q.Pop())
	})
	if avg != 0 {
		t.Errorf("push/cancel/pop cycle allocates %.2f objects/op, budget is 0 (headers come from the free list)", avg)
	}
}
