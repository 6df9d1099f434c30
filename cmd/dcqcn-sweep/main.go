// Command dcqcn-sweep runs the registered experiment scenarios as a
// parallel sweep: every (scenario, grid point, seed) combination is an
// independent single-threaded simulation, fanned out over a bounded
// worker pool. Results land as structured artifacts in the output
// directory:
//
//	raw_runs.jsonl   one JSON record per run (streamed as runs finish)
//	summary.json     per-point mean/p50/p95 aggregates across seeds
//	provenance.json  git commit, Go version, seeds, wall time, speedup
//
// Usage:
//
//	dcqcn-sweep [-scenario name,glob*] [-parallel N] [-reruns N]
//	            [-seeds N] [-out dir] [-full] [-check-determinism]
//	            [-bench] [-list] [-quiet] [-record] [-shards N]
//	            [-cc name[,name...]] [-cc-params json] [-list-cc]
//	            [-hybrid] [-bg-flows N] [-paper]
//
// -check-determinism reruns every (point, seed) at least twice and fails
// loudly unless engine digests and metrics are bit-identical — the gate
// that catches map-iteration or shared-RNG nondeterminism. -bench times
// the selected grid at -parallel 1 first and records the parallel
// speedup in provenance.json.
//
// -cc selects the congestion-control algorithm(s) from the internal/cc
// registry. With several names the whole scenario matrix runs once per
// algorithm: per-algorithm artifacts land in <out>/cc-<name>/ and a
// head-to-head comparison (cc_compare.json plus a printed table) lands
// in <out>/.
//
// -hybrid arms the fluid/packet co-simulation substrate
// (internal/hybrid) on every run: -bg-flows long-lived background
// flows are modeled as fluid DCQCN classes coupled into the fabric's
// buffers and ECN marking, at a cost independent of the flow count.
// -bg-flows alone implies -hybrid. The hybrid-* scenarios (registered
// regardless) sweep 10k/100k/1M background flows and validate the
// approximation against pure-packet ground truth.
//
// -paper regenerates the paper's tables and figures in the paper's order;
// -list then lists the entries and -scenario selects them by name. An
// entry backed by registry scenarios is swept exactly as -scenario would
// sweep them, with artifacts in <out>/<entry>/; fluid-model, host-model
// and analytical entries render directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dcqcn/internal/cc"
	"dcqcn/internal/experiments"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/harness"
	"dcqcn/internal/invariant"
)

var (
	scenario = flag.String("scenario", "all", "comma-separated scenario names (prefix globs allowed, e.g. ablation-*); with -paper, entry names")
	parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	reruns   = flag.Int("reruns", 1, "repetitions of every (point, seed) run")
	out      = flag.String("out", "sweep-out", "artifact directory ('' disables artifacts)")
	full     = flag.Bool("full", false, "high-fidelity runs (slow)")
	checkDet = flag.Bool("check-determinism", false, "rerun each (point, seed) and fail on digest mismatch")
	seedCap  = flag.Int("seeds", 0, "cap seeds per scenario (0 = all registered)")
	bench    = flag.Bool("bench", false, "also time the grid at -parallel 1 and record the speedup")
	list     = flag.Bool("list", false, "list scenarios (with -paper, the paper's entries) and exit")
	quiet    = flag.Bool("quiet", false, "suppress per-run progress")
	record   = flag.Bool("record", false, "arm the flight recorder on every run (passivity proof; recorded in provenance)")
	ccParams = flag.String("cc-params", "", "JSON object overlaid onto the selected algorithm's default params (single -cc only)")
	listCC   = flag.Bool("list-cc", false, "list registered cc algorithms with default params as JSON and exit")
	paper    = flag.Bool("paper", false, "regenerate the paper's tables and figures in presentation order (see -list)")
)

func main() {
	var rc harness.RunConfig
	rc.Bind(flag.CommandLine)
	flag.Parse()

	if *listCC {
		for _, name := range cc.Names() {
			sel, err := harness.RunConfig{CC: name}.Selection()
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-14s signals=%-28s %s\n  defaults: %s\n",
				sel.Name, sel.Caps(), sel.Algorithm.Description, sel.ParamsJSON())
		}
		return
	}

	base := experiments.Quick()
	if *full {
		base = experiments.Full()
	}
	rc.Fidelity = base.Fidelity
	if *ccParams != "" {
		rc.CCParams = json.RawMessage(*ccParams)
	}
	runs, err := rc.Resolve()
	if err != nil {
		usage(err)
	}

	if *record {
		// Armed before NewProvenance so flightrec_armed lands in the
		// artifact. The sink is nil: the sweep keeps no recordings — the
		// point is proving every scenario runs digest-identical with
		// recording on (use dcqcn-replay to actually inspect a run).
		flightrec.Arm(flightrec.Config{}, nil)
	}

	if *list {
		if *paper {
			for _, f := range experiments.Figures() {
				fmt.Printf("%-10s %s\n", f.Name, f.Desc)
			}
			return
		}
		for _, sc := range experiments.Registry(base).All() {
			fmt.Printf("%-18s %3d points x %d seeds  %s\n",
				sc.Name, len(sc.Points), len(sc.Seeds), sc.Description)
		}
		return
	}

	if *paper {
		if len(runs) > 1 {
			usage(fmt.Errorf("-paper takes a single -cc algorithm"))
		}
		figs, err := experiments.SelectFigures(*scenario)
		if err != nil {
			usage(fmt.Errorf("%v; use -paper -list", err))
		}
		fid := base
		fid.RunConfig = runs[0]
		reg := experiments.Registry(fid)
		for _, f := range figs {
			if f.Render == nil {
				fmt.Printf("=== %s — %s\n", f.Name, f.Desc)
				dir := *out
				if dir != "" {
					dir = filepath.Join(dir, f.Name)
				}
				sweep(selectScenarios(reg, f.Scenarios), runs[0], dir, true)
				continue
			}
			start := time.Now()
			text := f.Render(fid)
			fmt.Printf("=== %s — %s [%.1fs]\n%s\n", f.Name, f.Desc, time.Since(start).Seconds(), text)
		}
		return
	}

	// The whole scenario matrix runs once per selected algorithm; with a
	// single -cc name this collapses to the classic single-sweep layout.
	multi := len(runs) > 1
	cmp := harness.CCComparison{SchemaVersion: 1}
	for i, run := range runs {
		fid := base
		fid.RunConfig = run
		scs := selectScenarios(experiments.Registry(fid), *scenario)
		dir := *out
		if multi {
			if dir != "" {
				dir = filepath.Join(dir, "cc-"+run.CC)
			}
			fmt.Fprintf(os.Stderr, "== cc=%s (%d/%d)\n", run.CC, i+1, len(runs))
		}
		res, prov := sweep(scs, run, dir, !multi)
		if i == 0 {
			cmp.Scenarios = prov.Scenarios
		}
		sel, err := run.Selection()
		if err != nil {
			usage(err) // unreachable: Resolve validated the selection
		}
		cmp.Algorithms = append(cmp.Algorithms, harness.CCAlgoResult{
			CC:           run.CC,
			Capabilities: sel.Caps().String(),
			Params:       run.CCParams,
			TotalRuns:    prov.TotalRuns,
			TotalEvents:  prov.TotalEvents,
			WallMS:       prov.WallMS,
			Summaries:    res.Summaries,
		})
	}

	if multi {
		cmp.Canonicalize()
		fmt.Printf("\n=== head-to-head (%d algorithms, mean over seeds)\n%s", len(cmp.Algorithms), cmp.Table())
		if *out != "" {
			if err := harness.WriteCCComparison(*out, cmp); err != nil {
				fail(err)
			}
			fmt.Printf("comparison: %s\n", filepath.Join(*out, harness.CCCompareFile))
		}
	}
}

// usage reports a bad flag or selection and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// fail reports a runtime or gate failure and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// selectScenarios resolves a registry selection and applies the -seeds
// cap.
func selectScenarios(reg *harness.Registry, selection string) []harness.Scenario {
	scs, err := reg.Select(selection)
	if err != nil {
		usage(err)
	}
	if *seedCap > 0 {
		for i := range scs {
			if len(scs[i].Seeds) > *seedCap {
				scs[i].Seeds = scs[i].Seeds[:*seedCap]
			}
		}
	}
	return scs
}

// sweep runs one scenario selection under run, prints its per-scenario
// tables (when tables is set) and a summary, and writes the artifacts to
// dir (an empty dir disables them). It exits on any failure.
func sweep(scs []harness.Scenario, run harness.RunConfig, dir string, tables bool) (*harness.SweepResult, harness.Provenance) {
	prov := harness.NewProvenance("dcqcn-sweep")
	prov.Parallel = *parallel
	prov.Reruns = *reruns
	prov.Determinism = *checkDet
	prov.RunConfig = run
	prov.Describe(scs)

	if *bench {
		fmt.Fprintf(os.Stderr, "timing sequential baseline (-parallel 1)...\n")
		seqCfg := harness.Config{Parallel: 1, Reruns: *reruns}
		if *checkDet && seqCfg.Reruns < 2 {
			seqCfg.Reruns = 2 // match the gate's forced rerun count
		}
		seq, err := harness.Sweep(scs, seqCfg)
		if err != nil {
			fail(err)
		}
		prov.SequentialWallMS = float64(seq.Wall) / float64(time.Millisecond)
		fmt.Fprintf(os.Stderr, "sequential: %.1fs\n", seq.Wall.Seconds())
	}

	cfg := harness.Config{
		Parallel:         *parallel,
		Reruns:           *reruns,
		CheckDeterminism: *checkDet,
	}
	if !*quiet {
		cfg.Progress = func(done, total int, rec harness.RunRecord) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d] %s/%s seed=%d (%.0f ms)        ",
				done, total, rec.Scenario, rec.Point, rec.Seed, rec.WallMS)
		}
	}
	var rawFile *os.File
	if dir != "" {
		var err error
		if rawFile, err = harness.OpenRawWriter(dir); err != nil {
			fail(err)
		}
		cfg.RawWriter = rawFile
	}

	res, sweepErr := harness.Sweep(scs, cfg)
	if rawFile != nil {
		if err := rawFile.Close(); err != nil {
			fail(err)
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if sweepErr != nil {
		fmt.Fprintln(os.Stderr, sweepErr)
		if res != nil {
			for _, v := range res.DeterminismViolations {
				fmt.Fprintf(os.Stderr, "  violation: %s\n", v)
			}
		}
		os.Exit(1)
	}

	prov.Record(res)
	if prov.SequentialWallMS > 0 && prov.WallMS > 0 {
		prov.Speedup = prov.SequentialWallMS / prov.WallMS
	}

	if tables {
		for _, sc := range scs {
			fmt.Printf("=== %s — %s\n%s\n", sc.Name, sc.Description, res.Table(sc.Name))
		}
	}
	fmt.Printf("cc=%s: %d runs, %d simulated events, wall %.1fs\n",
		run.CC, len(res.Records), res.TotalEvents, res.Wall.Seconds())
	if *checkDet {
		fmt.Println("determinism gate: PASS (identical digests across reruns)")
	}
	if invariant.Enabled {
		fmt.Println("invariants auditor: armed (built with -tags invariants); no violations")
	}
	if flightrec.Armed() {
		fmt.Println("flight recorder: armed on every run (-record); digests unchanged by recording")
	}
	if prov.Speedup > 0 {
		fmt.Printf("speedup vs sequential: %.2fx (%.1fs -> %.1fs)\n",
			prov.Speedup, prov.SequentialWallMS/1000, prov.WallMS/1000)
	}

	if dir != "" {
		if err := harness.WriteArtifacts(dir, res, prov); err != nil {
			fail(err)
		}
		fmt.Printf("artifacts: %s\n", filepath.Join(dir, "{"+harness.RawRunsFile+","+harness.SummaryFile+","+harness.ProvenanceFile+"}"))
	}
	return res, prov
}
