package dcqcn

// Hybrid co-simulation cost, stated per unit of work. The workload is
// an 8:1 incast on a star rig for 10 ms simulated, under 0 / 10k / 100k
// / 1M fluid background flows. Background load starves the foreground,
// so runs at different flow counts do different amounts of foreground
// work: 108,319 engine events at 0 flows, 12,876 at 100k. Whole-run
// wall times are therefore never compared across flow counts.
// BenchmarkHybridIncast reports events per op and foreground goodput
// beside ns/op, so each point reads as cost per event at a stated
// goodput. TestHybridWorkGate carries the payoff claim as a count of
// engine events: the events real packet-level background flows add
// per flow, scaled to 100k flows, against the steps the fluid
// substrate schedules for 100k flows (1.32e8 against 1,000 on this
// workload).

import (
	"strconv"
	"testing"

	"dcqcn/internal/hybrid"
)

const hybridRunLength = 10 * Millisecond

// hybridRun is what one run of the hybrid workload did.
type hybridRun struct {
	digest string
	events uint64 // engine events executed
	steps  uint64 // fluid integration steps (0 without background)
	acked  int64  // foreground payload bytes in completed messages
	sent   int64  // foreground wire bytes, retransmissions included
}

// gbps converts bytes moved during one run to Gb/s.
func gbps(bytes int64) float64 {
	return float64(bytes) * 8 / hybridRunLength.Seconds() / 1e9
}

// hybridIncastRun drives the workload: with foreground set, 8 senders
// pour 2 MB chunks into H9 for 10 ms simulated, over bgFlows fluid
// background flows spread across the star's host pairs. Without
// foreground only the substrate runs, so every executed event is its
// own.
func hybridIncastRun(bgFlows int, foreground bool) hybridRun {
	opts := DefaultOptions()
	sim := NewStarNetwork(1, 9, opts)
	var sub *hybrid.Substrate
	if bgFlows > 0 {
		cfg := hybrid.DefaultConfig()
		cfg.Params = opts.inner.Switch.Marking
		sub = hybrid.AttachBackground(sim.net, cfg, bgFlows)
	}
	var flows []*Flow
	if foreground {
		flows = openIncast(sim, "H9", 1, 8)
	}
	sim.RunFor(hybridRunLength)
	run := hybridRun{digest: sim.Digest(), events: sim.net.Sim.Digest().Events}
	if sub != nil {
		run.steps = sub.Steps()
	}
	for _, f := range flows {
		st := f.Stats()
		run.acked += st.PayloadAcked
		run.sent += st.BytesSent
	}
	return run
}

// packetIncastRun is the packet-level cost model: the same 8:1 incast
// plus bgFlows real packet-level background flows from extra hosts
// into a second receiver, so the background loads the fabric without
// riding the measured bottleneck port.
func packetIncastRun(bgFlows int) hybridRun {
	sim := NewStarNetwork(1, 10+bgFlows, DefaultOptions())
	openIncast(sim, "H9", 1, 8)
	openIncast(sim, "H10", 11, 10+bgFlows)
	sim.RunFor(hybridRunLength)
	return hybridRun{digest: sim.Digest(), events: sim.net.Sim.Digest().Events}
}

// openIncast opens a closed-loop 2 MB flow from each of hosts
// H<first>..H<last> into recv.
func openIncast(sim *Network, recv string, first, last int) []*Flow {
	dst := sim.Host(recv).NodeID()
	var flows []*Flow
	for i := first; i <= last; i++ {
		flow := sim.Host("H" + strconv.Itoa(i)).OpenFlow(dst)
		var post func()
		post = func() { flow.PostMessage(2e6, func(Completion) { post() }) }
		post()
		flows = append(flows, flow)
	}
	return flows
}

// BenchmarkHybridIncast runs the incast at each background flow count
// and reports the engine events and foreground rates behind its ns/op:
// the cost of a point is ns/op over events/op, at the goodput the
// foreground got. Goodput counts completed 2 MB messages only, so
// fg-wire-Gb/s shows what a starved foreground still sent.
func BenchmarkHybridIncast(b *testing.B) {
	for _, bg := range []struct {
		name  string
		flows int
	}{{"bg=0", 0}, {"bg=10k", 10_000}, {"bg=100k", 100_000}, {"bg=1M", 1_000_000}} {
		b.Run(bg.name, func(b *testing.B) {
			var run hybridRun
			for i := 0; i < b.N; i++ {
				run = hybridIncastRun(bg.flows, true)
			}
			b.ReportMetric(float64(run.events), "events/op")
			b.ReportMetric(gbps(run.acked), "fg-Gb/s")
			b.ReportMetric(gbps(run.sent), "fg-wire-Gb/s")
		})
	}
}

// TestHybridWorkGate is the hybrid payoff claim as a deterministic
// count. Packet side: the engine events each real background flow adds
// between 16 and 64 flows, times 100k. Fluid side: the events the
// substrate schedules for 100k flows, run without foreground so every
// event is its own; they must be exactly its integration steps, each
// of which TestCostIndependentOfFlows pins at O(ports + classes). The
// fluid side must be at least 10x cheaper. Same-seed hybrid runs must
// also be digest-identical at every flow count.
func TestHybridWorkGate(t *testing.T) {
	const modeled = 100_000
	// The 10k run comes first so that a substrate which schedules work
	// per flow fails here before the larger runs pay for it.
	var fluid uint64
	for _, n := range []int{10_000, modeled} {
		run := hybridIncastRun(n, false)
		if run.events != run.steps {
			t.Fatalf("substrate alone at %d flows executed %d events for %d steps; want one event per step",
				n, run.events, run.steps)
		}
		fluid = run.steps
	}

	lo, hi := packetIncastRun(16), packetIncastRun(64)
	perFlow := float64(hi.events-lo.events) / (64 - 16)
	packetEvents := perFlow * modeled
	ratio := packetEvents / float64(fluid)
	t.Logf("packet background: %.0f events/flow, %.3g events at %d flows; substrate: %d steps; ratio %.0fx",
		perFlow, packetEvents, modeled, fluid, ratio)
	if ratio < 10 {
		t.Errorf("substrate work at %d flows is only %.1fx below packet-level background, want >= 10x", modeled, ratio)
	}

	for _, bg := range []int{0, 10_000, modeled, 1_000_000} {
		if a, b := hybridIncastRun(bg, true), hybridIncastRun(bg, true); a.digest != b.digest {
			t.Errorf("bg=%d: same-seed digests diverged: %s vs %s", bg, a.digest, b.digest)
		}
	}
}
