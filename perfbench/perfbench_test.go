package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"dcqcn/internal/simtime"
	"dcqcn/internal/workload"
)

func TestHighestPercentile(t *testing.T) {
	cands := []float64{50, 90, 99, 99.9}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0}, // the median of 19 has 9 samples above it
		{20, 50},
		{99, 50}, // p90 of 99 is rank 90: 9 above
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := highestPercentile(c.n, cands); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if requirePercentile("x", 1000, 99) != nil || requirePercentile("x", 999, 99) == nil {
		t.Error("requirePercentile disagrees with highestPercentile at the p99 boundary")
	}
	if highestPercentile(slicesPerRun, cands) < 90 {
		t.Errorf("%d slices per run cannot support the reported p90", slicesPerRun)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

// pbuf encodes the protobuf subset a canned profile needs.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pbuf) uint(field int, x uint64) {
	b.varint(uint64(field) << 3)
	b.varint(x)
}

func (b *pbuf) msg(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pbuf) packed(field int, xs ...uint64) {
	var in pbuf
	for _, x := range xs {
		in.varint(x)
	}
	b.msg(field, in.Bytes())
}

// cannedProfile builds a gzipped CPU profile. Each stack lists location
// IDs leaf first; each location lists function names leaf first (more
// than one means inlined frames).
func cannedProfile(t *testing.T, locs [][]string, samples []struct {
	stack []uint64
	ns    int64
}) []byte {
	t.Helper()
	var p pbuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := map[string]uint64{}
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var v pbuf
		v.uint(1, vt[0])
		v.uint(2, vt[1])
		p.msg(1, v.Bytes())
	}
	for i, s := range samples {
		var m pbuf
		if i%2 == 0 {
			m.packed(1, s.stack...)
			m.packed(2, 1, uint64(s.ns))
		} else { // unpacked, as runtime/pprof writes short runs
			for _, l := range s.stack {
				m.uint(1, l)
			}
			m.uint(2, 1)
			m.uint(2, uint64(s.ns))
		}
		p.msg(2, m.Bytes())
	}
	for i, fns := range locs {
		var m pbuf
		m.uint(1, uint64(i+1))
		for _, fn := range fns {
			id, ok := funcs[fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[fn] = id
				strs = append(strs, fn)
				var f pbuf
				f.uint(1, id)
				f.uint(2, uint64(len(strs)-1))
				p.msg(5, f.Bytes())
			}
			var line pbuf
			line.uint(1, id)
			line.uint(2, 42)
			m.msg(4, line.Bytes())
		}
		p.msg(4, m.Bytes())
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	p.uint(12, 10_000_000) // period, which attribution ignores
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestSelfSharesAttributeLeafModule(t *testing.T) {
	locs := [][]string{
		{"dcqcn/internal/eventq.(*Queue).Push"},      // 1
		{"dcqcn/internal/engine.(*Sim).Run"},         // 2
		{"runtime.nextFreeFast", "runtime.mallocgc"}, // 3: inlined
		{"runtime.scanobject"},                       // 4
		{"runtime.gcDrain"},                          // 5
		{"runtime.gcBgMarkWorker"},                   // 6
		{"dcqcn/internal/link.(*Port).kick", "dcqcn/internal/fabric.(*Switch).forward"}, // 7: inlined
		{"runtime.futex"},                       // 8
		{"math.Exp"},                            // 9
		{"dcqcn/internal/fluid.(*Law).Step"},    // 10
		{"runtime.memclrNoHeapPointers"},        // 11
		{"runtime.gcAssistAlloc"},               // 12
		{"runtime.mallocgc"},                    // 13
		{"dcqcn/internal/lint/callgraph.Build"}, // 14
		{"gcWriteBarrier2"},                     // 15
		{"main.runOnce"},                        // 16
	}
	samples := []struct {
		stack []uint64
		ns    int64
	}{
		{[]uint64{1, 2}, 10},       // eventq
		{[]uint64{3, 1, 2}, 20},    // runtime_malloc
		{[]uint64{4, 5, 6}, 30},    // runtime_gc
		{[]uint64{11, 12, 13}, 5},  // runtime_gc: an assist inside mallocgc
		{[]uint64{7, 2}, 15},       // link: the inlined leaf, not its caller
		{[]uint64{8}, 5},           // runtime_other
		{[]uint64{9, 10, 2}, 10},   // math, not fluid
		{[]uint64{14}, 5},          // lint: subpackage folds into its module
		{[]uint64{11, 13, 1}, 100}, // runtime_malloc
		{[]uint64{15, 1}, 7},       // runtime_other: an assembly stub
		{[]uint64{16}, 3},          // perfbench
	}
	p, err := parseProfile(cannedProfile(t, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"eventq": 10, "runtime_malloc": 120, "runtime_gc": 35, "link": 15,
		"runtime_other": 12, "math": 10, "lint": 5, "perfbench": 3,
	}
	if got := selfNs(p); !reflect.DeepEqual(got, want) {
		t.Errorf("self ns = %v, want %v", got, want)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{2<<3 | 2, 50, 1}) // claims 50 bytes, holds 1
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestUsermixScheduleIsSeeded(t *testing.T) {
	dist := workload.StorageTraceDist()
	gen := func(seed int64) []arrival {
		return usermixSchedule(seed, 20, usermixLength, usermixLoad, usermixLinkRate, dist)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	var bytes float64
	pairs := map[[2]int]int{}
	perSrc := map[int]int{}
	for i, x := range a {
		if x.At < 0 || x.At >= simtime.Time(usermixLength) || x.Src == x.Dst ||
			x.Src < 0 || x.Src >= 20 || x.Dst < 0 || x.Dst >= 20 || x.Size <= 0 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d out of time order", i)
		}
		bytes += float64(x.Size)
		pairs[[2]int{x.Src, x.Dst}]++
		perSrc[x.Src]++
	}
	// Every host sends the same number of messages, spread evenly over
	// the other 19.
	for src := 0; src < 20; src++ {
		if perSrc[src] != perSrc[0] {
			t.Fatalf("host %d sends %d messages, host 0 %d", src, perSrc[src], perSrc[0])
		}
		lo, hi := perSrc[0], 0
		for dst := 0; dst < 20; dst++ {
			if dst != src {
				lo, hi = min(lo, pairs[[2]int{src, dst}]), max(hi, pairs[[2]int{src, dst}])
			}
		}
		if hi-lo > 1 {
			t.Fatalf("host %d sends %d..%d messages per destination, want balanced", src, lo, hi)
		}
	}
	// Stratified sizes put the offered load close to 30% of 20 × 40 Gb/s.
	offered := bytes * 8 / usermixLength.Seconds() / (20 * float64(usermixLinkRate))
	if math.Abs(offered-usermixLoad) > 0.03 {
		t.Errorf("offered load %.3f of capacity, want %.2f", offered, usermixLoad)
	}
}

func TestQuantileSourceSamplesQuantile(t *testing.T) {
	dist := workload.StorageTraceDist()
	// The median lies between the 8 KB (35%) and 32 KB (55%) knots,
	// log-linearly three quarters of the way: 8e3 * 4^0.75.
	if got := dist.Sample(rand.New(quantile(0.5))); got != 22627 {
		t.Errorf("median = %d, want 22627", got)
	}
	if got := dist.Sample(rand.New(quantile(0))); got != 1 {
		t.Errorf("0-quantile = %d, want 1", got)
	}
	if got := dist.Sample(rand.New(quantile(math.Nextafter(1, 0)))); got != 32e6 {
		t.Errorf("top quantile = %d, want 32e6", got)
	}
}

// TestUsermixSeedsOfferEqualWork checks the point of stratified sizes:
// the bytes a 40 ms schedule offers vary little from seed to seed.
func TestUsermixSeedsOfferEqualWork(t *testing.T) {
	dist := workload.StorageTraceDist()
	lo, hi := math.Inf(1), 0.0
	for seed := int64(1); seed <= 20; seed++ {
		var total float64
		for _, a := range usermixSchedule(seed, 20, usermixLength, usermixLoad, usermixLinkRate, dist) {
			total += float64(a.Size)
		}
		lo, hi = math.Min(lo, total), math.Max(hi, total)
	}
	if hi/lo > 1.02 {
		t.Errorf("offered bytes range %.0f..%.0f over 20 seeds, want within 2%%", lo, hi)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the benchmark definition at the root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, code []metric, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(code), len(file))
			return
		}
		for i := range code {
			if code[i].name != file[i].Name || code[i].unit != file[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", what, i,
					code[i].name, code[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, def.EndToEnd)
	same("per_layer", perLayer, def.PerLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %s (%q), program %s (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestShardedIncastReproducesSequential runs a short testbed-incast
// both ways: the sharded run must execute the same events, count the
// same layer activity and record every completion, whichever shard
// goroutine it fired on.
func TestShardedIncastReproducesSequential(t *testing.T) {
	seq, sharded := *findWorkload("testbed-incast"), *findWorkload("testbed-incast-shards2")
	seq.length, sharded.length = 20*simtime.Millisecond, 20*simtime.Millisecond
	a, b := runOnce(&seq, 3, nil, 0), runOnce(&sharded, 3, nil, 0)
	if a.digest != b.digest {
		t.Fatalf("sharded digest %s, sequential %s", b.digest, a.digest)
	}
	if a.layers != b.layers {
		t.Errorf("sharded layer counts %+v, sequential %+v", b.layers, a.layers)
	}
	if len(a.fctUs) == 0 || len(a.fctUs) != len(b.fctUs) {
		t.Errorf("completions: sequential %d, sharded %d", len(a.fctUs), len(b.fctUs))
	}
	if len(b.sliceMs) != slicesPerRun {
		t.Errorf("%d slices timed, want %d", len(b.sliceMs), slicesPerRun)
	}
}

// TestCalibrateIsFixedWork pins what makes calibrate a measure of host
// speed only: the same work on every call, and no allocation beyond its
// two set-up slices, so neither the simulator's code nor the collector
// can change its time.
func TestCalibrateIsFixedWork(t *testing.T) {
	calibrate()
	first := calSink
	if allocs := testing.AllocsPerRun(3, func() { calibrate() }); allocs > 2 {
		t.Errorf("calibrate allocates %.0f objects, want at most 2", allocs)
	}
	if calSink != first {
		t.Errorf("calibrate result changed between calls: %d, then %d", first, calSink)
	}
}
