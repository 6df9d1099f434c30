// Command perfbench is the simulator's benchmark: it runs one named
// workload for a fixed host-time budget and prints its metrics, with the
// number of operations attempted and failed, as the last line of
// standard output.
//
//	perfbench --workload testbed-incast --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1
// reports the per-layer metrics from an untraced phase, a traced phase
// (spans and a CPU profile) and the layers' micro-paths. An operation is
// one simulation run; it fails if it panics or if its digest differs
// from the first run of the workload in the invocation (for
// testbed-incast-shards2, also from testbed-incast's at the same seed).
// A result file with the environment, digests and spans is written
// under --out. See README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of --trace 0, measured with tracing off.
var endToEnd = []metric{
	{"host_ms_per_sim_ms.p50", "ms"},
	{"host_ms_per_sim_ms.p90", "ms"},
	{"allocs_per_sim_ms", "count"},
	{"alloc_bytes_per_sim_ms", "bytes"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
	{"fg_goodput_gbps", "Gb/s"},
}

// perLayer are the metrics of --trace 1. Every workload reports all of
// them; a layer a workload does not run reads 0.
var perLayer = []metric{
	{"engine.events", "count"},
	{"engine.events_per_host_s", "1/s"},
	{"engine.ns_per_event", "ns"},
	{"engine.pending_max", "count"},
	{"self_share.engine", "fraction"},
	{"eventq.push_pop_ns", "ns"},
	{"eventq.push_pop_allocs", "count"},
	{"eventq.cancel_ns", "ns"},
	{"self_share.eventq", "fraction"},
	{"link.tx_packets", "count"},
	{"link.transmit_ns", "ns"},
	{"link.transmit_allocs", "count"},
	{"self_share.link", "fraction"},
	{"fabric.forwarded", "count"},
	{"fabric.ecn_marked", "count"},
	{"fabric.ecn_mark_ratio", "fraction"},
	{"fabric.pause_sent", "count"},
	{"fabric.drops", "count"},
	{"fabric.max_occupied_kb", "KB"},
	{"fabric.forward_ns", "ns"},
	{"fabric.forward_allocs", "count"},
	{"self_share.fabric", "fraction"},
	{"nic.cnps_sent", "count"},
	{"nic.cnps_received", "count"},
	{"rocev2.completions", "count"},
	{"rocev2.useful_ratio", "fraction"},
	{"rocev2.retransmit_bytes", "bytes"},
	{"self_share.nic", "fraction"},
	{"self_share.rocev2", "fraction"},
	{"core.rp_on_cnp_ns", "ns"},
	{"core.np_on_packet_ns", "ns"},
	{"self_share.core", "fraction"},
	{"hybrid.steps", "count"},
	{"hybrid.classes", "count"},
	{"hybrid.ports", "count"},
	{"fluid.law_step_ns", "ns"},
	{"hybrid.step_ns", "ns"},
	{"self_share.fluid", "fraction"},
	{"self_share.hybrid", "fraction"},
	{"parallel.speedup_vs_sequential", "ratio"},
	{"parallel.cpu_per_wall", "ratio"},
	{"self_share.parallel", "fraction"},
	{"setup.topology_s", "s"},
	{"setup.traffic_s", "s"},
	{"setup.substrate_s", "s"},
	{"runtime.gc_cpu_share", "fraction"},
	{"runtime.gc_cycles_per_sim_ms", "count"},
	{"self_share.runtime_malloc", "fraction"},
	{"self_share.runtime_gc", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"sim.messages", "count"},
	{"sim.msg_fct_us.p50", "us"},
	{"sim.msg_fct_us.p99", "us"},
}

// minTimedRuns is the fewest timed operations a phase makes, whatever
// the budget.
const minTimedRuns = 3

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result files")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// The sharded workload uses two cores; more would let the collector
	// and the shards spread over cores other machines lack.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := run(w, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures w and prints the summary line and the result line.
func run(w *workloadDef, seed int64, seconds, trace int, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b := &bench{w: w, seed: seed, budget: time.Duration(seconds) * time.Second, trace: trace == 1,
		prefix: filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace))}
	res, err := b.run()
	if err != nil {
		return err
	}
	if err := writeJSON(b.prefix+".json", res); err != nil {
		return err
	}
	fmt.Printf("%s seed=%d digest=%s engine.events=%d host_ms_per_sim_ms.p50=%.3f fg_goodput_gbps=%.3f runs=%d failed=%d\n",
		w.name, seed, res.Digest, res.EngineEvents, res.HostP50, res.FgGoodputGbps, res.Attempted, res.Failed)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envRecord describes where and on what a result was measured.
type envRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Runs       int    `json:"runs"`
	TimedRuns  int    `json:"timed_runs"`
	// RunsP50 is each timed run's unscaled host_ms_per_sim_ms.p50;
	// Spread is their (Q3-Q1)/median.
	RunsP50 []float64 `json:"host_ms_per_sim_ms_p50_runs"`
	Spread  float64   `json:"host_ms_per_sim_ms_p50_spread"`
	// CalibrateS is the median calibrate time around the timed runs;
	// Scale = calibrationRef / CalibrateS multiplies every host time
	// among the end-to-end metrics.
	CalibrateS float64 `json:"calibrate_s"`
	Scale      float64 `json:"host_time_scale"`
}

// result is the result file of one invocation.
type result struct {
	Workload      string                 `json:"workload"`
	Why           string                 `json:"why"`
	Trace         bool                   `json:"trace"`
	Env           envRecord              `json:"env"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Failures      []string               `json:"failures,omitempty"`
	Digest        string                 `json:"digest"`
	EngineEvents  uint64                 `json:"engine_events"`
	SimMsPerRun   float64                `json:"sim_ms_per_run"`
	SlicesPerRun  int                    `json:"slices_per_run"`
	HostP50       float64                `json:"host_ms_per_sim_ms_p50"`
	FgGoodputGbps float64                `json:"fg_goodput_gbps"`
	Messages      int                    `json:"messages"`
	FCTHighestPct float64                `json:"msg_fct_highest_supported_percentile"`
	Metrics       map[string]metricValue `json:"metrics"`
	SelfNs        map[string]int64       `json:"self_cpu_ns,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// commit names the source revision the binary was built from: the VCS
// stamp go build records inside a git checkout, else "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// bench is one invocation: a workload, a seed and a host-time budget.
type bench struct {
	w      *workloadDef
	seed   int64
	budget time.Duration
	trace  bool
	prefix string

	spans     *spanLog
	selfNs    map[string]int64 // traced CPU nanoseconds by leaf module
	ops       int
	failures  []string
	refDigest string
}

// op runs one operation and checks its digest against the reference.
// It reports false only if the run panicked; a digest mismatch is
// recorded as a failure but the run's measurements are kept.
func (b *bench) op(spans *spanLog) (res runResult, ok bool) {
	b.ops++
	id := fmt.Sprintf("%s/seed%d/op%d", b.w.name, b.seed, b.ops)
	spans.setRun(id)
	root := spans.begin(0, "run")
	defer spans.end(root)
	defer func() {
		if r := recover(); r != nil {
			b.failures = append(b.failures, fmt.Sprintf("%s: panic: %v", id, r))
			ok = false
		}
	}()
	res = runOnce(b.w, b.seed, spans, root)
	if b.refDigest == "" {
		b.refDigest = res.digest
	}
	if res.digest != b.refDigest {
		b.failures = append(b.failures, fmt.Sprintf("%s: digest %s, want %s", id, res.digest, b.refDigest))
	}
	return res, true
}

// phase repeats operations until budget is spent (never fewer than
// minTimedRuns), starting another only if the last one's duration still
// fits, and returns the runs that did not panic. With traced set, each
// untraced operation is followed by a traced one, so that drift in the
// host's speed falls on both alike.
func (b *bench) phase(budget time.Duration, traced bool) (plain, withTrace []runResult, err error) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < minTimedRuns || time.Since(start)+last <= budget; n++ {
		t := time.Now()
		if res, ok := b.op(nil); ok {
			plain = append(plain, res)
		}
		if traced {
			res, ok, err := b.tracedOp()
			if err != nil {
				return nil, nil, err
			}
			if ok {
				withTrace = append(withTrace, res)
			}
		}
		last = time.Since(t)
	}
	return plain, withTrace, nil
}

// tracedOp runs one operation with spans on under a CPU profile and adds
// the profile's CPU time by leaf module to b.selfNs.
func (b *bench) tracedOp() (runResult, bool, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return runResult{}, false, err
	}
	res, ok := b.op(b.spans)
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return res, ok, err
	}
	for mod, ns := range selfNs(p) {
		b.selfNs[mod] += ns
	}
	return res, ok, nil
}

func (b *bench) run() (*result, error) {
	w := b.w
	res := &result{Workload: w.name, Why: w.why, Trace: b.trace, SimMsPerRun: w.length.Seconds() * 1e3,
		SlicesPerRun: slicesPerRun}

	// The sharded workload must reproduce the sequential digest, so a
	// sequential run of testbed-incast at the same seed is its reference.
	incast := findWorkload("testbed-incast")
	if w.shards > 1 {
		b.refDigest = runOnce(incast, b.seed, nil, 0).digest
	}
	// The first operation warms the process and, for the other
	// workloads, fixes the reference digest; it is not timed.
	warm, ok := b.op(nil)
	if !ok {
		return nil, fmt.Errorf("first run failed: %v", b.failures)
	}
	all := []runResult{warm}

	metrics := map[string]float64{}
	var timed, traced []runResult
	var err error
	if !b.trace {
		timed, _, err = b.phase(b.budget, false)
	} else {
		// Paired runs take four fifths of the budget, the micro-paths
		// the rest.
		b.spans = newSpanLog()
		b.selfNs = map[string]int64{}
		timed, traced, err = b.phase(b.budget*4/5, true)
	}
	if err != nil {
		return nil, err
	}
	if len(timed) == 0 || (b.trace && len(traced) == 0) {
		return nil, fmt.Errorf("every operation panicked: %v", b.failures)
	}
	all = append(all, timed...)
	p50s, p90s := sliceStats(timed)
	last := timed[len(timed)-1]

	// Host times are scaled to the speed at which calibrate takes
	// calibrationRef, so that drift in the host's speed between
	// invocations cancels.
	var cals []float64
	for _, r := range timed {
		cals = append(cals, r.calS)
	}
	scale := calibrationRef / median(cals)

	if !b.trace {
		var allocs, bytes, heap, setup []float64
		for _, r := range timed {
			allocs = append(allocs, float64(r.mallocs)/(r.simS*1e3))
			bytes = append(bytes, float64(r.allocBytes)/(r.simS*1e3))
			heap = append(heap, float64(r.heapPeak)/1e6)
		}
		for _, r := range all {
			setup = append(setup, r.setup.total()*scale)
		}
		metrics["host_ms_per_sim_ms.p50"] = median(p50s) * scale
		metrics["host_ms_per_sim_ms.p90"] = median(p90s) * scale
		metrics["allocs_per_sim_ms"] = median(allocs)
		metrics["alloc_bytes_per_sim_ms"] = median(bytes)
		metrics["heap_peak_mb"] = median(heap)
		metrics["setup_s"] = median(setup)
		metrics["fg_goodput_gbps"] = goodputGbps(last)
	} else {
		all = append(all, traced...)
		tp50s, _ := sliceStats(traced)
		metrics["trace.overhead_frac"] = median(tp50s)/median(p50s) - 1
		b.profileMetrics(metrics, traced)
		b.microMetrics(metrics, last.pendingMax)
		if w.shards > 1 {
			// Timed after the warm-up, like the sharded runs.
			seqP50, _ := sliceStats([]runResult{runOnce(incast, b.seed, nil, 0)})
			metrics["parallel.speedup_vs_sequential"] = seqP50[0] / median(p50s)
		}
		b.layerMetrics(metrics, timed, all, last)
	}

	res.Digest = last.digest
	res.EngineEvents = last.events
	res.HostP50 = median(p50s) * scale
	res.FgGoodputGbps = goodputGbps(last)
	res.Messages = len(last.fctUs)
	res.FCTHighestPct = highestPercentile(len(last.fctUs), []float64{50, 90, 99, 99.9})
	res.Attempted = b.ops
	res.Failed = len(b.failures)
	res.Failures = b.failures
	res.SelfNs = b.selfNs
	res.Correct = res.Failed == 0 && b.checkOutputs(last, res)
	res.Env = envRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: b.seed, Runs: b.ops, TimedRuns: len(timed),
		RunsP50: p50s, Spread: quartileSpread(p50s), CalibrateS: median(cals), Scale: scale,
	}
	wanted := endToEnd
	if b.trace {
		wanted = perLayer
	}
	res.Metrics = map[string]metricValue{}
	for _, m := range wanted {
		res.Metrics[m.name] = metricValue{Value: metrics[m.name], Unit: m.unit}
	}
	if b.spans != nil {
		if err := b.spans.write(b.prefix + "-spans.json"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkOutputs applies the workload-independent sanity checks to the
// simulated results, recording each violation as a failure reason.
func (b *bench) checkOutputs(r runResult, res *result) bool {
	ok := true
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		ok = false
	}
	l := r.layers
	if l.payloadAcked > l.bytesSent {
		fail("acked payload %d exceeds bytes sent %d", l.payloadAcked, l.bytesSent)
	}
	if l.drops != 0 {
		fail("%d packets dropped in a lossless fabric", l.drops)
	}
	// star-hybrid-1m's foreground is starved by design of the workload
	// (see README.md); every other workload must deliver.
	if b.w.name != "star-hybrid-1m" && l.payloadAcked == 0 {
		fail("foreground acked no payload")
	}
	if b.w.name == "testbed-usermix" {
		if err := requirePercentile("usermix completions", len(r.fctUs), 99); err != nil {
			fail("%v", err)
		}
	}
	return ok
}

// goodputGbps is the foreground payload acknowledged per simulated
// second.
func goodputGbps(r runResult) float64 {
	return float64(r.layers.payloadAcked) * 8 / r.simS / 1e9
}

// sliceStats returns each run's p50 and p90 of host ms per simulated ms.
func sliceStats(runs []runResult) (p50s, p90s []float64) {
	for _, r := range runs {
		s := append([]float64(nil), r.sliceMs...)
		p50s = append(p50s, percentile(s, 50))
		p90s = append(p90s, percentile(s, 90))
	}
	return p50s, p90s
}

// profileMetrics fills the self-time shares and the hybrid step cost
// from the CPU time the traced runs' profiles attribute to each module.
func (b *bench) profileMetrics(metrics map[string]float64, traced []runResult) {
	var total int64
	for _, ns := range b.selfNs {
		total += ns
	}
	if total == 0 {
		return
	}
	for _, mod := range []string{"engine", "eventq", "link", "fabric", "nic", "rocev2", "core", "fluid", "hybrid", "parallel", "runtime_malloc", "runtime_gc"} {
		metrics["self_share."+mod] = float64(b.selfNs[mod]) / float64(total)
	}
	var steps uint64
	for _, r := range traced {
		steps += r.layers.hybridSteps
	}
	if steps > 0 {
		metrics["hybrid.step_ns"] = float64(b.selfNs["fluid"]+b.selfNs["hybrid"]) / float64(steps)
	}
}

// microMetrics times each layer's micro-path, the event-queue ones at
// the workload's measured pending depth, within a fifth of the budget.
func (b *bench) microMetrics(metrics map[string]float64, depth int) {
	if depth < 1 {
		depth = 1
	}
	each := b.budget / 5 / 7
	b.spans.setRun(fmt.Sprintf("%s/seed%d/micro", b.w.name, b.seed))
	root := b.spans.begin(0, "micro")
	defer b.spans.end(root)
	m := measureMicro("eventq.push_pop", each, 20000, eventqPushPop(depth, 20000), b.spans, root)
	metrics["eventq.push_pop_ns"], metrics["eventq.push_pop_allocs"] = m.nsPerOp, m.allocsPerOp
	m = measureMicro("eventq.cancel", each, 20000, eventqCancel(depth, 20000), b.spans, root)
	metrics["eventq.cancel_ns"] = m.nsPerOp
	m = measureMicro("link.transmit", each, 4000, linkTransmit(4000), b.spans, root)
	metrics["link.transmit_ns"], metrics["link.transmit_allocs"] = m.nsPerOp, m.allocsPerOp
	m = measureMicro("fabric.forward", each, 4000, switchForward(4000), b.spans, root)
	metrics["fabric.forward_ns"], metrics["fabric.forward_allocs"] = m.nsPerOp, m.allocsPerOp
	m = measureMicro("core.rp_on_cnp", each, 20000, rpOnCNP(20000), b.spans, root)
	metrics["core.rp_on_cnp_ns"] = m.nsPerOp
	m = measureMicro("core.np_on_packet", each, 100000, npOnPacket(100000), b.spans, root)
	metrics["core.np_on_packet_ns"] = m.nsPerOp
	m = measureMicro("fluid.law_step", each, 50000, lawStep(50000), b.spans, root)
	metrics["fluid.law_step_ns"] = m.nsPerOp
}

// layerMetrics fills the per-layer counts, taken from last (every
// successful run of a workload executes the same events), and the
// per-layer costs, taken as medians over the untraced timed runs.
func (b *bench) layerMetrics(metrics map[string]float64, timed, all []runResult, last runResult) {
	var evPerS, nsPerEv, gcShare, gcCycles []float64
	var cpuSum, wallSum float64
	for _, r := range timed {
		evPerS = append(evPerS, float64(r.events)/r.hostS)
		nsPerEv = append(nsPerEv, r.hostS*1e9/float64(r.events))
		gcShare = append(gcShare, r.gcCPUShare)
		gcCycles = append(gcCycles, float64(r.gcCycles)/(r.simS*1e3))
		cpuSum += r.cpuS
		wallSum += r.hostS
	}
	var topo, traffic, substrate []float64
	for _, r := range all {
		topo = append(topo, r.setup.topology)
		traffic = append(traffic, r.setup.traffic)
		substrate = append(substrate, r.setup.substrate)
	}
	l := last.layers
	metrics["engine.events"] = float64(last.events)
	metrics["engine.events_per_host_s"] = median(evPerS)
	metrics["engine.ns_per_event"] = median(nsPerEv)
	metrics["engine.pending_max"] = float64(last.pendingMax)
	metrics["link.tx_packets"] = float64(l.linkTxPackets)
	metrics["fabric.forwarded"] = float64(l.forwarded)
	metrics["fabric.ecn_marked"] = float64(l.ecnMarked)
	if l.forwarded > 0 {
		metrics["fabric.ecn_mark_ratio"] = float64(l.ecnMarked) / float64(l.forwarded)
	}
	metrics["fabric.pause_sent"] = float64(l.pauseSent)
	metrics["fabric.drops"] = float64(l.drops)
	metrics["fabric.max_occupied_kb"] = float64(l.maxOccupied) / 1e3
	metrics["nic.cnps_sent"] = float64(l.cnpsSent)
	metrics["nic.cnps_received"] = float64(l.cnpsReceived)
	metrics["rocev2.completions"] = float64(l.completions)
	if l.bytesSent > 0 {
		metrics["rocev2.useful_ratio"] = float64(l.payloadAcked) / float64(l.bytesSent)
	}
	metrics["rocev2.retransmit_bytes"] = float64(l.retransmitBytes)
	metrics["hybrid.steps"] = float64(l.hybridSteps)
	metrics["hybrid.classes"] = float64(l.hybridClasses)
	metrics["hybrid.ports"] = float64(l.hybridPorts)
	if wallSum > 0 {
		metrics["parallel.cpu_per_wall"] = cpuSum / wallSum
	}
	metrics["setup.topology_s"] = median(topo)
	metrics["setup.traffic_s"] = median(traffic)
	metrics["setup.substrate_s"] = median(substrate)
	metrics["runtime.gc_cpu_share"] = median(gcShare)
	metrics["runtime.gc_cycles_per_sim_ms"] = median(gcCycles)
	fct := append([]float64(nil), last.fctUs...)
	metrics["sim.messages"] = float64(len(fct))
	if len(fct) > 0 {
		metrics["sim.msg_fct_us.p50"] = percentile(fct, 50)
	}
	if highestPercentile(len(fct), []float64{99}) == 99 {
		metrics["sim.msg_fct_us.p99"] = percentile(fct, 99)
	}
}
