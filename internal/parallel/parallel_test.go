package parallel

import (
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/invariant"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// buildTestbed constructs the Fig. 2 testbed with a cross-pod workload:
// every host sends to a host seven positions away in creation order (so
// most pairs cross the pod boundary and therefore, when sharded, the
// shard boundary), plus a control-side ticker sampling a spine queue —
// the stop-the-world path. The workload is identical for every shard
// count; only the runtime differs.
func buildTestbed(t *testing.T, shards int) *topology.Network {
	t.Helper()
	opts := topology.DefaultOptions()
	opts.Shards = shards
	net := topology.NewTestbed(1, opts)
	hosts := net.HostNames()
	for i, src := range hosts {
		dst := hosts[(i+7)%len(hosts)]
		flow := net.Host(src).OpenFlow(net.Host(dst).ID)
		flow.PostMessage(200_000, nil)
	}
	var probe int64
	net.Sim.Ticker(100*simtime.Microsecond, func(simtime.Time) {
		probe += net.Switch("S1").PauseReceived()
	})
	return net
}

func digestOf(t *testing.T, shards int, until simtime.Time) engine.Digest {
	t.Helper()
	net := buildTestbed(t, shards)
	net.Sim.Run(until)
	return net.Sim.Digest()
}

// TestShardedDigestMatchesSequential is the core bit-identity claim at
// unit scale: the same testbed workload run sequentially and at every
// feasible shard count yields the same digest.
func TestShardedDigestMatchesSequential(t *testing.T) {
	until := simtime.Time(2 * simtime.Millisecond)
	want := digestOf(t, 0, until)
	if want.Events == 0 {
		t.Fatal("sequential run executed no events")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		if got := digestOf(t, shards, until); got != want {
			t.Errorf("shards=%d digest %v, want sequential %v", shards, got, want)
		}
	}
}

// TestMergeOrderInterleavingInvariant is the property test for the
// (time, seq) merge: the digest folded from per-shard executed-event
// streams must not depend on how the Go scheduler interleaves the
// worker goroutines. Repeated sharded runs give the scheduler fresh
// chances to reorder window execution; every digest must match.
func TestMergeOrderInterleavingInvariant(t *testing.T) {
	until := simtime.Time(1 * simtime.Millisecond)
	want := digestOf(t, 4, until)
	for i := 0; i < 8; i++ {
		if got := digestOf(t, 4, until); got != want {
			t.Fatalf("iteration %d: digest %v, want %v — merge order leaked scheduler state", i, got, want)
		}
	}
}

// TestCutLinkFlapMatchesSequential flaps every link the 2-way
// partition cuts, five times, while cross-pod traffic is on the wire. Sharded, the
// frames on those links reached their destination FIFOs through the
// barrier injection, so the flap must kill exactly the frames a
// sequential run kills, and the digests must agree.
func TestCutLinkFlapMatchesSequential(t *testing.T) {
	run := func(shards int) (engine.Digest, []int64) {
		net := buildTestbed(t, shards)
		cut := net.Partition(2).Cross
		// kills[2*i+d] counts flap kills in direction d of cut link i;
		// only direction d's receiving shard writes it.
		kills := make([]int64, 2*len(cut))
		for i, cl := range cut {
			a, _ := cl.Link.Ports()
			cl.Link.OnDrop = func(from *link.Port, _ *packet.Packet, r link.DropReason) {
				if r != link.DropFlapEpoch {
					return
				}
				d := 1
				if from == a {
					d = 0
				}
				kills[2*i+d]++
			}
		}
		flap := func(down bool) func() {
			return func() {
				for _, cl := range cut {
					cl.Link.SetDown(down)
				}
			}
		}
		for k := 0; k < 5; k++ {
			down := simtime.Time(20+10*k) * simtime.Time(simtime.Microsecond)
			net.Sim.At(down, flap(true))
			net.Sim.At(down.Add(simtime.Microsecond), flap(false))
		}
		net.Sim.Run(simtime.Time(200 * simtime.Microsecond))
		return net.Sim.Digest(), kills
	}
	want, wantKills := run(0)
	var total int64
	for _, k := range wantKills {
		total += k
	}
	if total == 0 {
		t.Fatal("the flap killed no frames on the cut links — the test exercised nothing")
	}
	for _, shards := range []int{2, 4} {
		got, kills := run(shards)
		if got != want {
			t.Errorf("shards=%d digest %v, want sequential %v", shards, got, want)
		}
		for i := range kills {
			if kills[i] != wantKills[i] {
				t.Errorf("shards=%d: cut link %d direction %d lost %d frames to the flap, sequential %d",
					shards, i/2, i%2, kills[i], wantKills[i])
			}
		}
	}
}

// TestRunResumes checks the runner across multiple Run calls with
// control work scheduled in between — the shape every scenario has
// (warmup snapshot, then measurement).
func TestRunResumes(t *testing.T) {
	mk := func(shards int) engine.Digest {
		net := buildTestbed(t, shards)
		mid := simtime.Time(500 * simtime.Microsecond)
		var snapshot int64
		net.Sim.At(mid, func() { snapshot = net.Switch("S1").PauseReceived() })
		net.Sim.Run(mid)
		net.Sim.Run(simtime.Time(1 * simtime.Millisecond))
		_ = snapshot
		return net.Sim.Digest()
	}
	if seq, sharded := mk(0), mk(4); seq != sharded {
		t.Fatalf("resumed run diverged: sequential %v, sharded %v", seq, sharded)
	}
}

// TestStarFallsBack: a single-switch topology cannot split; Shards > 1
// must quietly run sequentially and produce the sequential digest.
func TestStarFallsBack(t *testing.T) {
	run := func(shards int) engine.Digest {
		opts := topology.DefaultOptions()
		opts.Shards = shards
		net := topology.NewStar(3, 5, opts)
		recv := net.Host("H5")
		for i := 1; i < 5; i++ {
			net.Host(net.HostNames()[i-1]).OpenFlow(recv.ID).PostMessage(100_000, nil)
		}
		net.Sim.Run(simtime.Time(1 * simtime.Millisecond))
		return net.Sim.Digest()
	}
	if seq, sharded := run(0), run(4); seq != sharded {
		t.Fatalf("star fallback diverged: %v vs %v", seq, sharded)
	}
}

// TestShardRejectsScheduledEvents: sharding after events are scheduled
// would let pre-partition state leak across cores; Shard must panic.
func TestShardRejectsScheduledEvents(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariants build: Shard declines before the pending-events check")
	}
	net := topology.NewTestbed(1, topology.DefaultOptions())
	net.Sim.At(simtime.Time(simtime.Microsecond), func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Shard accepted a network with pending events")
		}
	}()
	Shard(net, 2)
}
