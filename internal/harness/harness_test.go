package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dcqcn/internal/engine"
	"dcqcn/internal/simtime"
)

// syntheticScenario is a tiny but genuinely stochastic workload: a chain
// of events whose inter-arrival jitter comes from the sim's seeded RNG,
// so digests depend on the seed and the "load" parameter.
func syntheticScenario() Scenario {
	points := []Point{
		{Label: "load=10", Params: map[string]float64{"load": 10}},
		{Label: "load=25", Params: map[string]float64{"load": 25}},
	}
	return Scenario{
		Name:        "synthetic",
		Description: "seeded random event chain",
		Points:      points,
		Seeds:       Runs(3),
		Run: func(rc RunContext) RunResult {
			sim := engine.New(rc.Seed*7919 + 11)
			n := int(rc.Point.Params["load"])
			var sum float64
			var step func()
			step = func() {
				sum += float64(sim.Rand().Intn(100))
				if int(sim.Events()) < n {
					sim.After(simtime.Duration(1+sim.Rand().Intn(50)), step)
				}
			}
			sim.After(1, step)
			sim.RunAll()
			return RunResult{
				Metrics: Metrics{"sum": sum, "events": float64(sim.Events())},
				Digest:  sim.Digest(),
			}
		},
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Register(syntheticScenario())
	sc2 := syntheticScenario()
	sc2.Name = "synthetic-b"
	reg.Register(sc2)

	if got := reg.Names(); len(got) != 2 || got[0] != "synthetic" || got[1] != "synthetic-b" {
		t.Fatalf("names = %v", got)
	}
	if _, ok := reg.Get("synthetic"); !ok {
		t.Fatal("Get failed for registered scenario")
	}
	sel, err := reg.Select("synthetic-b")
	if err != nil || len(sel) != 1 || sel[0].Name != "synthetic-b" {
		t.Fatalf("Select exact: %v, %v", sel, err)
	}
	sel, err = reg.Select("synthetic*")
	if err != nil || len(sel) != 2 {
		t.Fatalf("Select glob: %v, %v", sel, err)
	}
	sel, err = reg.Select("all")
	if err != nil || len(sel) != 2 {
		t.Fatalf("Select all: %v, %v", sel, err)
	}
	if _, err := reg.Select("nope"); err == nil {
		t.Fatal("Select of unknown scenario should error")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.Register(syntheticScenario())
}

// TestSweepParallelMatchesSequential is the heart of the determinism
// story: the same grid swept with 1 worker and with 4 workers must
// produce identical records in identical order.
func TestSweepParallelMatchesSequential(t *testing.T) {
	scs := []Scenario{syntheticScenario()}
	seq, err := Sweep(scs, Config{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(scs, Config{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) != len(par.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(seq.Records), len(par.Records))
	}
	for i := range seq.Records {
		a, b := seq.Records[i], par.Records[i]
		a.WallMS, b.WallMS = 0, 0 // wall time legitimately differs
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("record %d differs:\nseq: %s\npar: %s", i, aj, bj)
		}
	}
	if len(seq.DeterminismViolations) != 0 {
		t.Fatalf("unexpected violations: %v", seq.DeterminismViolations)
	}
}

func TestSweepDeterminismGatePasses(t *testing.T) {
	res, err := Sweep([]Scenario{syntheticScenario()}, Config{Parallel: 4, CheckDeterminism: true})
	if err != nil {
		t.Fatalf("gate should pass for a deterministic scenario: %v", err)
	}
	// CheckDeterminism forces at least two reruns per (point, seed).
	if want := 2 * 3 * 2; len(res.Records) != want {
		t.Fatalf("got %d records, want %d", len(res.Records), want)
	}
}

// TestSweepDeterminismGateCatches injects the exact class of bug the
// gate exists for: state shared across runs (here an atomic counter
// standing in for a shared RNG or map-iteration leak).
func TestSweepDeterminismGateCatches(t *testing.T) {
	var calls atomic.Int64
	bad := Scenario{
		Name:   "nondeterministic",
		Points: []Point{{Label: "only"}},
		Seeds:  Runs(1),
		Run: func(rc RunContext) RunResult {
			n := calls.Add(1)
			sim := engine.New(rc.Seed)
			for i := int64(0); i < n; i++ { // event count depends on call order
				sim.After(simtime.Duration(i+1), func() {})
			}
			sim.RunAll()
			return RunResult{Metrics: Metrics{"n": float64(n)}, Digest: sim.Digest()}
		},
	}
	res, err := Sweep([]Scenario{bad}, Config{Parallel: 2, CheckDeterminism: true})
	if err == nil {
		t.Fatal("determinism gate failed to fire")
	}
	if len(res.DeterminismViolations) == 0 {
		t.Fatal("violations list empty despite gate failure")
	}
	if !strings.Contains(res.DeterminismViolations[0], "digest") {
		t.Fatalf("violation should name the digest mismatch: %q", res.DeterminismViolations[0])
	}
}

func TestSweepAggregation(t *testing.T) {
	sc := Scenario{
		Name:   "agg",
		Points: []Point{{Label: "p"}},
		Seeds:  Runs(4),
		Run: func(rc RunContext) RunResult {
			sim := engine.New(rc.Seed)
			sim.After(1, func() {})
			sim.RunAll()
			return RunResult{
				Metrics: Metrics{"v": float64(rc.Seed)}, // 0,1,2,3
				Digest:  sim.Digest(),
			}
		},
	}
	res, err := Sweep([]Scenario{sc}, Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 1 {
		t.Fatalf("got %d summaries, want 1", len(res.Summaries))
	}
	m := res.Summaries[0].Metrics["v"]
	if m.N != 4 || m.Mean != 1.5 || m.Min != 0 || m.Max != 3 || m.P50 != 1.5 {
		t.Fatalf("bad aggregation: %+v", m)
	}
	if res.Summaries[0].Runs != 4 {
		t.Fatalf("runs = %d, want 4", res.Summaries[0].Runs)
	}
	table := res.Table("agg")
	if !strings.Contains(table, "point") || !strings.Contains(table, "1.500") {
		t.Fatalf("table rendering broken:\n%s", table)
	}
}

func TestSweepDropsNonFiniteMetrics(t *testing.T) {
	sc := Scenario{
		Name:   "nan",
		Points: []Point{{Label: "p"}},
		Seeds:  Runs(1),
		Run: func(rc RunContext) RunResult {
			sim := engine.New(rc.Seed)
			sim.After(1, func() {})
			sim.RunAll()
			nan := 0.0
			nan /= nan
			return RunResult{Metrics: Metrics{"ok": 1, "bad": nan}, Digest: sim.Digest()}
		},
	}
	res, err := Sweep([]Scenario{sc}, Config{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, present := res.Records[0].Metrics["bad"]; present {
		t.Fatal("NaN metric should be dropped from records")
	}
	if res.Records[0].Metrics["ok"] != 1 {
		t.Fatal("finite metric lost")
	}
	// The whole result must remain JSON-marshalable.
	if _, err := json.Marshal(res.Summaries); err != nil {
		t.Fatalf("summaries not marshalable: %v", err)
	}
}

// TestArtifacts exercises the full artifact path: streamed JSONL, then
// summary.json + provenance.json in the output directory.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	raw, err := OpenRawWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	scs := []Scenario{syntheticScenario()}
	var progressCalls int
	res, err := Sweep(scs, Config{
		Parallel:  3,
		RawWriter: raw,
		Progress:  func(done, total int, rec RunRecord) { progressCalls++ },
	})
	if cerr := raw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if progressCalls != len(res.Records) {
		t.Fatalf("progress called %d times, want %d", progressCalls, len(res.Records))
	}

	prov := NewProvenance("harness_test")
	prov.Describe(scs)
	prov.Record(res)
	prov.Parallel = 3
	// Every omitempty field set, so the key-set check below sees them all.
	prov.RunConfig = RunConfig{Fidelity: "quick", Shards: 2, CC: "dcqcn",
		CCParams: json.RawMessage(`{"g":0.5}`), Hybrid: true, BgFlows: 10}
	prov.SequentialWallMS, prov.Speedup = 2, 1.5
	if err := WriteArtifacts(dir, res, prov); err != nil {
		t.Fatal(err)
	}

	// raw_runs.jsonl: one valid JSON object per run.
	f, err := os.Open(filepath.Join(dir, RawRunsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		var rec RunRecord
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not a RunRecord: %v", lines+1, err)
		}
		if rec.Scenario == "" || rec.Digest == "" {
			t.Fatalf("line %d missing identity: %+v", lines+1, rec)
		}
		lines++
	}
	if lines != len(res.Records) {
		t.Fatalf("raw_runs.jsonl has %d lines, want %d", lines, len(res.Records))
	}

	var summary struct {
		Summaries []PointSummary `json:"summaries"`
	}
	data, err := os.ReadFile(filepath.Join(dir, SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &summary); err != nil {
		t.Fatal(err)
	}
	if len(summary.Summaries) != 2 {
		t.Fatalf("summary has %d points, want 2", len(summary.Summaries))
	}

	var gotProv Provenance
	data, err = os.ReadFile(filepath.Join(dir, ProvenanceFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &gotProv); err != nil {
		t.Fatal(err)
	}
	if gotProv.TotalRuns != len(res.Records) || gotProv.GoVersion == "" || len(gotProv.Seeds["synthetic"]) != 3 {
		t.Fatalf("provenance incomplete: %+v", gotProv)
	}

	// The key set is an artifact contract: the embedded RunConfig must
	// not rename or drop a key downstream tooling reads.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"schema_version", "tool", "started_at", "git_commit", "go_version",
		"os", "arch", "num_cpu", "parallel", "reruns", "shards",
		"determinism_checked", "invariants_armed", "flightrec_armed",
		"fidelity", "hybrid_armed", "bg_flows", "cc", "cc_params",
		"scenarios", "seeds", "total_runs", "total_events", "wall_ms",
		"sequential_wall_ms", "speedup_vs_sequential",
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("provenance.json lacks key %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("provenance.json has unexpected keys: %s", keys)
	}
}

func TestCombineDigests(t *testing.T) {
	a := engine.Digest{Events: 10, Hash: 0xabc}
	b := engine.Digest{Events: 20, Hash: 0xdef}
	ab, ba := CombineDigests(a, b), CombineDigests(b, a)
	if ab.Events != 30 || ba.Events != 30 {
		t.Fatalf("event sums wrong: %v %v", ab, ba)
	}
	if ab.Hash == ba.Hash {
		t.Fatal("combine must be order-sensitive")
	}
	if CombineDigests(a, b) != ab {
		t.Fatal("combine must be deterministic")
	}
}

// TestCCComparisonCanonicalOrder pins the cc_compare.json algorithm
// order: WriteCCComparison sorts by algorithm name, so `-cc a,b` and
// `-cc b,a` produce byte-identical artifacts and head-to-head tables.
func TestCCComparisonCanonicalOrder(t *testing.T) {
	mk := func(names ...string) CCComparison {
		cmp := CCComparison{SchemaVersion: 1, Scenarios: []string{"synthetic"}}
		for _, n := range names {
			cmp.Algorithms = append(cmp.Algorithms, CCAlgoResult{
				CC:     n,
				Params: json.RawMessage(`{}`),
				Summaries: []PointSummary{{
					Scenario: "synthetic", Point: "load=10",
					Metrics: map[string]MetricSummary{"sum": {N: 1, Mean: 1}},
				}},
			})
		}
		return cmp
	}

	read := func(dir string) []string {
		data, err := os.ReadFile(filepath.Join(dir, CCCompareFile))
		if err != nil {
			t.Fatal(err)
		}
		var got CCComparison
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(got.Algorithms))
		for i, a := range got.Algorithms {
			names[i] = a.CC
		}
		return names
	}

	dir := t.TempDir()
	if err := WriteCCComparison(dir, mk("timely", "dcqcn", "qcn")); err != nil {
		t.Fatal(err)
	}
	if got := read(dir); !slicesEqual(got, []string{"dcqcn", "qcn", "timely"}) {
		t.Errorf("algorithms not in canonical order: %v", got)
	}

	// Selection order must not leak: both spellings write the same bytes.
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := WriteCCComparison(dirA, mk("qcn", "dcqcn")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCCComparison(dirB, mk("dcqcn", "qcn")); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dirA, CCCompareFile))
	b, _ := os.ReadFile(filepath.Join(dirB, CCCompareFile))
	if !bytes.Equal(a, b) {
		t.Error("cc_compare.json depends on -cc selection order")
	}

	// The printed table's columns follow the same canonical order.
	cmp := mk("qcn", "dcqcn")
	cmp.Canonicalize()
	table := cmp.Table()
	if di, qi := strings.Index(table, "dcqcn"), strings.Index(table, "qcn"); di < 0 || qi < 0 || di > qi {
		t.Errorf("table columns not in canonical order:\n%s", table)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
