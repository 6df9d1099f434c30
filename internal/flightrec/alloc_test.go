//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// recorder's append path encodes one event with no per-event heap
// allocation — the only allocations are the chunk header and buffer a
// seal creates every ~64KiB of encoding, amortized across thousands of
// records. BenchmarkRecorderAppend times the same path. Race builds
// skip both.

package flightrec

import (
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/packet"
	"dcqcn/internal/topology"
)

func TestAllocBudgetRecord(t *testing.T) {
	sim := engine.New(1)
	r := newRecorder(&topology.Network{Sim: sim}, Config{})
	id := r.intern("S0.p1")
	r.record(KindEnqueue, id, packet.Data, 7, 0, 1000, 3, 0, 0) // open the first chunk outside the measurement

	avg := testing.AllocsPerRun(20000, func() {
		r.record(KindEnqueue, id, packet.Data, 7, 42, 1000, 3, 0, 0)
	})
	// ~11 encoded bytes/event → a seal (chunk header + 64KiB buffer +
	// occasional chunks-slice growth) every ~6000 events. Budget 0.01
	// allocations/event leaves 3x headroom over that amortized cost
	// while still catching any new per-event allocation (which would
	// show up as avg >= 1).
	if avg > 0.01 {
		t.Errorf("record allocates %.4f objects/event, amortized budget is 0.01", avg)
	}
	if r.EventsRecorded() == 0 {
		t.Fatal("nothing recorded — the measurement exercised nothing")
	}
}

// BenchmarkRecorderAppend measures the flight recorder's encode-and-
// append path for one event.
func BenchmarkRecorderAppend(b *testing.B) {
	b.ReportAllocs()
	sim := engine.New(1)
	r := newRecorder(&topology.Network{Sim: sim}, Config{})
	id := r.intern("S0.p1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.record(KindEnqueue, id, packet.Data, 7, int64(i), 1000, 3, 0, 0)
	}
}
