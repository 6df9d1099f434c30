package dcqcn

// Sharded-runtime benchmarks: one large cross-pod incast on the Fig. 2
// testbed, run sequentially and sharded across 2, 4 and 8 cores via
// WithShards. The ns/op ratios are the conservative-parallel speedup,
// which only counts if the sharded runs are bit-identical:
// TestShardedIncastDigests checks that on every `go test` run.

import "testing"

// shardedIncastRun drives the benchmark workload: every host of a
// 9-hosts-per-ToR testbed (36 hosts) outside the receiver's ToR sends
// 2 MB rebuild reads to H11 in a closed loop — a 27:1 incast crossing
// the shardable pod boundary — for 10 ms simulated. Returns the digest.
func shardedIncastRun(shards int) string {
	sim := NewTestbedNetwork(1, DefaultOptions().WithHostsPerToR(9).WithShards(shards))
	recv := sim.Host("H11")
	for _, name := range sim.HostNames() {
		if name[1] == '1' { // receiver's ToR: H11..H19
			continue
		}
		flow := sim.Host(name).OpenFlow(recv.NodeID())
		var post func()
		post = func() { flow.PostMessage(2e6, func(Completion) { post() }) }
		post()
	}
	sim.RunFor(10 * Millisecond)
	return sim.Digest()
}

func benchShardedIncast(b *testing.B, shards int) {
	for i := 0; i < b.N; i++ {
		shardedIncastRun(shards)
	}
}

// BenchmarkShardedIncastSequential is the baseline single-core run.
func BenchmarkShardedIncastSequential(b *testing.B) { benchShardedIncast(b, 0) }

// BenchmarkShardedIncast2 / 4 / 8 run the same simulation sharded.
func BenchmarkShardedIncast2(b *testing.B) { benchShardedIncast(b, 2) }
func BenchmarkShardedIncast4(b *testing.B) { benchShardedIncast(b, 4) }
func BenchmarkShardedIncast8(b *testing.B) { benchShardedIncast(b, 8) }

// TestShardedIncastDigests checks that the benchmark workload is
// bit-identical to the sequential run at 2, 4 and 8 shards. It is the
// only check of this cross-pod incast beyond two shards.
func TestShardedIncastDigests(t *testing.T) {
	want := shardedIncastRun(0)
	for _, shards := range []int{2, 4, 8} {
		if got := shardedIncastRun(shards); got != want {
			t.Errorf("shards=%d digest %s, want %s", shards, got, want)
		}
	}
}
