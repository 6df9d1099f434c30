package parallel

import (
	"fmt"
	"runtime"
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
//
// It runs twice: at the default GOMAXPROCS, where waiters spin at the
// barrier whenever every shard can hold a core, and at GOMAXPROCS=1,
// where every shard count oversubscribes and waiters yield at once.
func TestShardedDigestMatchesSequential(t *testing.T) {
	until := simtime.Time(2 * simtime.Millisecond)
	want := digestOf(t, 0, until)
	if want.Events == 0 {
		t.Fatal("sequential run executed no events")
	}
	for _, procs := range []int{0, 1} {
		name := "GOMAXPROCS=default"
		if procs > 0 {
			name = fmt.Sprintf("GOMAXPROCS=%d", procs)
		}
		t.Run(name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, shards := range []int{2, 3, 4, 8} {
				if got := digestOf(t, shards, until); got != want {
					t.Errorf("shards=%d digest %v, want sequential %v", shards, got, want)
				}
			}
		})
	}
}

// TestMidRunDigestMatchesSequential guards the deferred digest fold:
// control events read net.Sim.Digest() at several times mid-run, and each
// read must equal the sequential run's read at the same time. A window
// whose fold was still pending at a control turn would show up here as a
// short count.
func TestMidRunDigestMatchesSequential(t *testing.T) {
	reads := func(shards int) []engine.Digest {
		net := buildTestbed(t, shards)
		var got []engine.Digest
		for k := 1; k <= 7; k++ {
			// Off the 100 µs ticker grid, so each read is a control turn
			// of its own between windows.
			at := simtime.Time(k) * simtime.Time(137*simtime.Microsecond)
			net.Sim.At(at, func() { got = append(got, net.Sim.Digest()) })
		}
		net.Sim.Run(simtime.Time(1 * simtime.Millisecond))
		return got
	}
	want := reads(0)
	if len(want) != 7 || want[0].Events == 0 {
		t.Fatalf("sequential reads %v: the probes did not see a running simulation", want)
	}
	for _, shards := range []int{2, 4} {
		got := reads(shards)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("shards=%d: mid-run digest reads %v, want sequential %v", shards, got, want)
			}
		}
	}
}

// TestShortRunsMatchLongRun drives a sharded network the way the
// benchmark does — 200 consecutive short Run calls — and checks that the
// result is the digest of one long Run, that the digest after every call
// equals a sequential network's stepped the same way, and that every call
// retires its workers: the goroutine count is back at its baseline. The
// step is off the ticker's 100 µs grid, so most calls end without a
// control turn and only Run's own final fold makes the digest exact.
func TestShortRunsMatchLongRun(t *testing.T) {
	const steps = 200
	step := simtime.Time(5017 * simtime.Nanosecond)
	want := digestOf(t, 2, step*steps)
	seq, net := buildTestbed(t, 0), buildTestbed(t, 2)
	base := runtime.NumGoroutine()
	for i := 1; i <= steps; i++ {
		seq.Sim.Run(step * simtime.Time(i))
		net.Sim.Run(step * simtime.Time(i))
		if got, want := net.Sim.Digest(), seq.Sim.Digest(); got != want {
			t.Fatalf("after Run call %d: digest %v, sequential %v", i, got, want)
		}
		// A retired worker has signalled its exit but may still be
		// returning; give it a bounded chance to finish.
		n := runtime.NumGoroutine()
		for spins := 0; n > base && spins < 1000; spins++ {
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Fatalf("after Run call %d: %d goroutines, baseline %d — a worker leaked", i, n, base)
		}
	}
	if got := net.Sim.Digest(); got != want {
		t.Fatalf("%d short runs: digest %v, one long run %v", steps, got, want)
	}
}

// TestWindowStats checks the coordinator's counters: the events it folded
// are exactly the digest's event count, and the testbed workload runs
// both parallel windows and control turns (its ticker).
func TestWindowStats(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariants build: Shard declines and the run stays sequential")
	}
	if _, ok := WindowStats(buildTestbed(t, 0).Sim); ok {
		t.Fatal("a sequential network reported window statistics")
	}
	net := buildTestbed(t, 2)
	net.Sim.Run(simtime.Time(450 * simtime.Microsecond))
	net.Sim.Run(simtime.Time(1010 * simtime.Microsecond))
	st, ok := WindowStats(net.Sim)
	if !ok {
		t.Fatal("the 2-shard testbed did not shard")
	}
	if d := net.Sim.Digest(); st.Events != d.Events {
		t.Errorf("folded %d events, digest counts %d", st.Events, d.Events)
	}
	if st.Windows == 0 || st.ControlTurns == 0 {
		t.Errorf("stats %+v: want both windows and control turns", st)
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
