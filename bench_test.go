package dcqcn

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment at quick
// fidelity and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The shapes to expect (who wins, by
// what factor) are recorded in EXPERIMENTS.md; for publication-grade
// statistics run `go run ./cmd/dcqcn-sweep -paper -full`.

import (
	"testing"

	"dcqcn/internal/experiments"
	"dcqcn/internal/fluid"
	"dcqcn/internal/harness"
	"dcqcn/internal/hostmodel"
	"dcqcn/internal/simtime"
)

// benchFidelity trades statistical weight for benchmark runtime.
func benchFidelity() experiments.Fidelity {
	return experiments.Fidelity{
		Duration: 20 * simtime.Millisecond,
		Warmup:   10 * simtime.Millisecond,
		Runs:     1,
	}
}

// BenchmarkFig1HostComparison regenerates Fig. 1: TCP vs RDMA
// throughput, CPU and latency on the host model.
func BenchmarkFig1HostComparison(b *testing.B) {
	m := hostmodel.DefaultMachine()
	var tcp4MB, rdma4KB hostmodel.Point
	for i := 0; i < b.N; i++ {
		tcp4MB = hostmodel.TCPStack().Evaluate(m, 4e6)
		rdma4KB = hostmodel.RDMAWriteStack().Evaluate(m, 4e3)
	}
	b.ReportMetric(tcp4MB.ReceiverCPU*100, "tcp4MB-srvCPU%")
	b.ReportMetric(float64(rdma4KB.Throughput)/1e9, "rdma4KB-Gbps")
	b.ReportMetric(hostmodel.TCPStack().Latency(m, 2000).Microseconds(), "tcp2KB-us")
	b.ReportMetric(hostmodel.RDMAWriteStack().Latency(m, 2000).Microseconds(), "rdma2KB-us")
}

// BenchmarkFig3PFCUnfairness regenerates Fig. 3: the parking-lot
// unfairness of PFC-only RoCEv2.
func BenchmarkFig3PFCUnfairness(b *testing.B) {
	var r experiments.UnfairnessResult
	for i := 0; i < b.N; i++ {
		r = experiments.Unfairness(experiments.ModePFCOnly, benchFidelity())
	}
	b.ReportMetric(r.H4Advantage(), "H4-advantage")
	b.ReportMetric(r.Med[3], "H4-median-Gbps")
}

// BenchmarkFig4VictimFlow regenerates Fig. 4: congestion spreading hurts
// a victim whose path shares no congested link.
func BenchmarkFig4VictimFlow(b *testing.B) {
	var r experiments.VictimFlowResult
	for i := 0; i < b.N; i++ {
		r = experiments.VictimFlow(experiments.ModePFCOnly, []int{0, 2}, benchFidelity())
	}
	b.ReportMetric(r.VictimMed[0], "victim-0senders-Gbps")
	b.ReportMetric(r.VictimMed[1], "victim-2senders-Gbps")
}

// BenchmarkFig8DCQCNFairness regenerates Fig. 8: DCQCN removes the
// parking-lot unfairness.
func BenchmarkFig8DCQCNFairness(b *testing.B) {
	var r experiments.UnfairnessResult
	for i := 0; i < b.N; i++ {
		r = experiments.Unfairness(experiments.ModeDCQCN, benchFidelity())
	}
	b.ReportMetric(r.H4Advantage(), "H4-advantage")
}

// BenchmarkFig9DCQCNVictimFlow regenerates Fig. 9: with DCQCN the victim
// keeps its throughput as remote congestion grows.
func BenchmarkFig9DCQCNVictimFlow(b *testing.B) {
	var r experiments.VictimFlowResult
	for i := 0; i < b.N; i++ {
		r = experiments.VictimFlow(experiments.ModeDCQCN, []int{0, 2}, benchFidelity())
	}
	b.ReportMetric(r.VictimMed[0], "victim-0senders-Gbps")
	b.ReportMetric(r.VictimMed[1], "victim-2senders-Gbps")
}

// BenchmarkFig10FluidVsImplementation regenerates Fig. 10: the fluid
// model tracks the packet-level implementation.
func BenchmarkFig10FluidVsImplementation(b *testing.B) {
	var r experiments.FluidVsPacketResult
	for i := 0; i < b.N; i++ {
		r = experiments.FluidVsPacket(benchFidelity())
	}
	b.ReportMetric(r.MeanRelError*100, "relerr-%")
}

// BenchmarkFig11ParameterSweeps regenerates the Fig. 11 convergence
// sweeps over byte counter, timer, K_max and P_max.
func BenchmarkFig11ParameterSweeps(b *testing.B) {
	var sweeps map[string][]experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		sweeps = experiments.Fig11Sweeps()
	}
	a := sweeps["a:byte-counter"]
	d := sweeps["d:pmax"]
	b.ReportMetric(a[0].RateDiff, "strawman-diff-Gbps")
	b.ReportMetric(d[0].RateDiff, "pmax.01-diff-Gbps")
}

// BenchmarkFig12AlphaGainQueue regenerates Fig. 12: queue stability for
// g = 1/16 versus 1/256.
func BenchmarkFig12AlphaGainQueue(b *testing.B) {
	var pts []experiments.Fig12Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig12AlphaGain()
	}
	for _, p := range pts {
		if p.Incast == 2 {
			if p.G > 0.05 {
				b.ReportMetric(p.QueuePeak/1000, "g16-2to1-peakKB")
			} else {
				b.ReportMetric(p.QueuePeak/1000, "g256-2to1-peakKB")
			}
		}
	}
}

// BenchmarkFig13ParameterValidation regenerates the Fig. 13 testbed
// microbenchmarks of the four parameter configurations.
func BenchmarkFig13ParameterValidation(b *testing.B) {
	var rs []experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Fig13All(benchFidelity())
	}
	b.ReportMetric(rs[0].MeanDiff, "strawman-diff-Gbps")
	b.ReportMetric(rs[3].MeanDiff, "deployed-diff-Gbps")
}

// BenchmarkFig15PauseMessages regenerates Fig. 15: PAUSE frames at the
// spines with and without DCQCN.
func BenchmarkFig15PauseMessages(b *testing.B) {
	var pfc, dcqcn []experiments.Fig16Point
	for i := 0; i < b.N; i++ {
		pfc = experiments.Fig16(experiments.ModePFCOnly, []int{10}, benchFidelity())
		dcqcn = experiments.Fig16(experiments.ModeDCQCN, []int{10}, benchFidelity())
	}
	b.ReportMetric(float64(pfc[0].SpinePauses), "pfc-spine-pauses")
	b.ReportMetric(float64(dcqcn[0].SpinePauses), "dcqcn-spine-pauses")
}

// BenchmarkFig16BenchmarkTraffic regenerates Fig. 16: user and incast
// throughput percentiles versus incast degree.
func BenchmarkFig16BenchmarkTraffic(b *testing.B) {
	var pfc, dcqcn []experiments.Fig16Point
	for i := 0; i < b.N; i++ {
		pfc = experiments.Fig16(experiments.ModePFCOnly, []int{2, 10}, benchFidelity())
		dcqcn = experiments.Fig16(experiments.ModeDCQCN, []int{2, 10}, benchFidelity())
	}
	b.ReportMetric(pfc[1].User10th, "pfc-user-p10-Gbps")
	b.ReportMetric(dcqcn[1].User10th, "dcqcn-user-p10-Gbps")
	b.ReportMetric(pfc[1].Incast10th, "pfc-incast-p10-Gbps")
	b.ReportMetric(dcqcn[1].Incast10th, "dcqcn-incast-p10-Gbps")
}

// BenchmarkFig17HigherLoad regenerates Fig. 17: DCQCN carries 16x the
// user pairs at comparable per-flow performance.
func BenchmarkFig17HigherLoad(b *testing.B) {
	var r experiments.Fig17Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig17(5, 80, 10, benchFidelity())
	}
	b.ReportMetric(r.NoDCQCNUserMedian, "5pairs-noDCQCN-p50-Gbps")
	b.ReportMetric(r.DCQCNUserMedian, "80pairs-DCQCN-p50-Gbps")
}

// BenchmarkFig18PFCAndThresholds regenerates Fig. 18: the four
// configurations at 8:1 incast.
func BenchmarkFig18PFCAndThresholds(b *testing.B) {
	var rs []experiments.Fig18Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Fig18(8, benchFidelity())
	}
	for _, r := range rs {
		switch r.Mode {
		case experiments.ModeDCQCN:
			b.ReportMetric(r.Incast10th, "dcqcn-incast-p10-Gbps")
		case experiments.ModeDCQCNNoPFC:
			b.ReportMetric(float64(r.Drops), "nopfc-drops")
		}
	}
}

// BenchmarkFig19QueueLengthCDF regenerates Fig. 19: queue lengths of
// DCQCN versus DCTCP at 20:1 incast.
func BenchmarkFig19QueueLengthCDF(b *testing.B) {
	var r experiments.Fig19Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig19(benchFidelity())
	}
	b.ReportMetric(r.DCQCNQueue.Percentile(90)/1000, "dcqcn-p90-KB")
	b.ReportMetric(r.DCTCPQueue.Percentile(90)/1000, "dctcp-p90-KB")
}

// BenchmarkFig20MultiBottleneck regenerates Fig. 20: cut-off versus
// RED-like marking in the parking lot.
func BenchmarkFig20MultiBottleneck(b *testing.B) {
	fid := experiments.Fidelity{
		Duration: 30 * simtime.Millisecond,
		Warmup:   40 * simtime.Millisecond,
		Runs:     1,
	}
	var rs []experiments.Fig20Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Fig20(fid)
	}
	b.ReportMetric(rs[0].F2, "cutoff-f2-Gbps")
	b.ReportMetric(rs[1].F2, "red-f2-Gbps")
}

// BenchmarkSec4BufferThresholds regenerates the §4 threshold table.
func BenchmarkSec4BufferThresholds(b *testing.B) {
	var plan BufferPlan
	for i := 0; i < b.N; i++ {
		plan = PlanBuffers(Arista7050QX32(), 8)
	}
	b.ReportMetric(float64(plan.Headroom)/1000, "tflight-KB")
	b.ReportMetric(float64(plan.StaticPFC)/1000, "tPFC-KB")
	b.ReportMetric(float64(plan.ECNThreshold)/1000, "tECN-KB")
}

// BenchmarkSec61IncastSummary regenerates the §6.1 K:1 incast check.
func BenchmarkSec61IncastSummary(b *testing.B) {
	var pts []experiments.IncastSummaryPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.IncastSummary([]int{16}, benchFidelity())
	}
	b.ReportMetric(pts[0].TotalGbps, "16to1-total-Gbps")
	b.ReportMetric(pts[0].QueueP99KB, "16to1-queue-p99-KB")
}

// BenchmarkFluidSolver measures raw fluid-model integration throughput.
func BenchmarkFluidSolver(b *testing.B) {
	cfg := fluid.DefaultConfig()
	cfg.Duration = 50 * simtime.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketSimulator measures raw simulator event throughput on a
// 2:1 incast (packets forwarded per wall second is the real metric; the
// reported custom metric is simulated packets per run).
func BenchmarkPacketSimulator(b *testing.B) {
	b.ReportAllocs()
	var forwarded int64
	for i := 0; i < b.N; i++ {
		sim := NewStarNetwork(int64(i), 3, DefaultOptions())
		recv := sim.Host("H3").NodeID()
		sim.Host("H1").OpenFlow(recv).PostMessage(20e6, nil)
		sim.Host("H2").OpenFlow(recv).PostMessage(20e6, nil)
		sim.RunFor(10 * Millisecond)
		forwarded = sim.Switch("SW").Forwarded
	}
	b.ReportMetric(float64(forwarded), "pkts/run")
}

// BenchmarkSec7RandomLoss regenerates the §7 non-congestion loss study:
// go-back-N goodput versus random frame loss.
func BenchmarkSec7RandomLoss(b *testing.B) {
	var pts []experiments.RandomLossPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RandomLoss([]float64{0, 1e-3}, benchFidelity())
	}
	b.ReportMetric(pts[0].GoodputGbps, "clean-Gbps")
	b.ReportMetric(pts[1].GoodputGbps, "loss1e-3-Gbps")
}

// BenchmarkExtensionTimely compares DCQCN with the TIMELY baseline:
// fairness (max/min goodput) at similar utilization.
func BenchmarkExtensionTimely(b *testing.B) {
	var rs []experiments.TimelyComparisonResult
	for i := 0; i < b.N; i++ {
		rs = experiments.TimelyComparison(benchFidelity())
	}
	b.ReportMetric(rs[0].FairnessRatio, "dcqcn-max/min")
	b.ReportMetric(rs[1].FairnessRatio, "timely-max/min")
}

// BenchmarkExtensionClassIsolation measures PFC class isolation: the
// victim's throughput on a separate class versus inside the incast class.
func BenchmarkExtensionClassIsolation(b *testing.B) {
	var rs []experiments.ClassIsolationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.ClassIsolation(benchFidelity())
	}
	b.ReportMetric(rs[0].VictimGbps, "same-class-Gbps")
	b.ReportMetric(rs[1].VictimGbps, "separate-class-Gbps")
}

// --- Ablation benches (design choices DESIGN.md calls out) ---

// BenchmarkAblationTimerVsByteCounter: byte-counter-dominated versus
// timer-dominated recovery.
func BenchmarkAblationTimerVsByteCounter(b *testing.B) {
	var rs []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.AblationTimerVsByteCounter(benchFidelity())
	}
	b.ReportMetric(rs[0].Metrics["mean |r1-r2| (Gbps)"], "bytecounter-diff-Gbps")
	b.ReportMetric(rs[1].Metrics["mean |r1-r2| (Gbps)"], "timer-diff-Gbps")
}

// BenchmarkAblationG: packet-level g comparison at 16:1 incast.
func BenchmarkAblationG(b *testing.B) {
	var rs []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.AblationG(benchFidelity())
	}
	b.ReportMetric(rs[0].Metrics["queue p99 (KB)"], "g16-queue-p99-KB")
	b.ReportMetric(rs[1].Metrics["queue p99 (KB)"], "g256-queue-p99-KB")
}

// BenchmarkAblationSlowStart: DCQCN's line-rate start versus DCTCP slow
// start for a bursty transfer.
func BenchmarkAblationSlowStart(b *testing.B) {
	var rs []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.AblationFastStart(experiments.Quick())
	}
	b.ReportMetric(rs[0].Metrics["FCT (us)"], "dcqcn-FCT-us")
	b.ReportMetric(rs[1].Metrics["FCT (us)"], "dctcp-FCT-us")
}

// BenchmarkAblationCNPPriority: CNPs on the high-priority class versus
// the data class.
func BenchmarkAblationCNPPriority(b *testing.B) {
	var rs []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.AblationCNPPriority(benchFidelity())
	}
	b.ReportMetric(rs[0].Metrics["mean |r1-r2| (Gbps)"], "highprio-diff-Gbps")
	b.ReportMetric(rs[1].Metrics["mean |r1-r2| (Gbps)"], "dataprio-diff-Gbps")
}

// --- Sweep-harness benches (sequential vs parallel orchestration) ---

// sweepBenchGrid builds the harness benchmark grid: the §7 loss study at
// 4 seeds per point — 16 independent single-threaded simulations, enough
// work to keep a small worker pool saturated.
func sweepBenchGrid(b *testing.B) []harness.Scenario {
	b.Helper()
	fid := experiments.Fidelity{
		Duration: 10 * simtime.Millisecond,
		Warmup:   5 * simtime.Millisecond,
		Runs:     4,
	}
	reg := harness.NewRegistry()
	experiments.RegisterScenarios(reg, fid)
	scs, err := reg.Select("randomloss")
	if err != nil {
		b.Fatal(err)
	}
	return scs
}

func benchSweep(b *testing.B, parallel int) {
	scs := sweepBenchGrid(b)
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.Sweep(scs, harness.Config{Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		events = res.TotalEvents
	}
	b.ReportMetric(float64(events), "events/sweep")
}

// BenchmarkSweepSequential times the benchmark grid at -parallel 1.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel4 times the same grid at -parallel 4. The ns/op
// ratio against BenchmarkSweepSequential is the orchestration speedup;
// it approaches min(4, NumCPU) on idle multi-core hardware and ~1.0x on
// a single-core machine (the runs are CPU-bound). The same comparison is
// available end to end via `dcqcn-sweep -bench`, which records the
// measured speedup in provenance.json.
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkAblationRAI: R_AI versus incast scalability (32:1).
func BenchmarkAblationRAI(b *testing.B) {
	var rs []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.AblationRAI(benchFidelity())
	}
	b.ReportMetric(rs[0].Metrics["queue p99 (KB)"], "rai40-queue-p99-KB")
	b.ReportMetric(rs[1].Metrics["queue p99 (KB)"], "rai20-queue-p99-KB")
}
