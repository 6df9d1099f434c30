//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): a
// steady-state paced flow and the ACKs it draws allocate only their
// packet headers, one per data packet (packet.NewData) and one per ACK
// (packet.NewAck). The pacing event, the RTO re-armed on every send and
// every ACK, and the link path under both reuse pooled event headers
// and continuations bound once per flow. Packet headers stay because
// packets are not pooled. Race builds skip the budget (the detector
// perturbs counts).

package nic

import (
	"runtime"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/link"
	"dcqcn/internal/simtime"
)

func TestAllocBudgetPacedSendAck(t *testing.T) {
	sim := engine.New(1)
	cfg := DefaultConfig()
	// A quarter of line rate, so every packet waits on a pacing event.
	cfg.Controller = FixedRateFactory(10 * simtime.Gbps)
	a := New(sim, 1, "a", cfg)
	b := New(sim, 2, "b", cfg)
	link.Connect(sim, a.Port(), b.Port(), 500*simtime.Nanosecond)
	flow := a.OpenFlow(b.ID)
	flow.PostMessage(1<<40, nil) // outlasts the test: no completion, no new message
	step := 100 * simtime.Microsecond
	sim.Run(sim.Now().Add(step)) // warm rings, heap, header pool and receiver state

	acks := func() int64 {
		st, _ := b.ReceiverStats(flow.ID())
		return st.AcksSent
	}
	sent0, acks0 := flow.Stats().PacketsSent, acks()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.Run(sim.Now().Add(10 * step))
	runtime.ReadMemStats(&after)

	data, ack := flow.Stats().PacketsSent-sent0, acks()-acks0
	if data == 0 || ack == 0 {
		t.Fatalf("sent %d data packets and %d ACKs — the measurement exercised nothing", data, ack)
	}
	if allocs, budget := after.Mallocs-before.Mallocs, uint64(data+ack); allocs > budget {
		t.Errorf("%d data packets and %d ACKs allocated %d objects, budget is %d (the packet headers)",
			data, ack, allocs, budget)
	}
}
