// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks the program's outputs, and prints every metric by
// name with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md for why each exists and which layers it loads):
//
//	pipeline  the paper's batch analysis in-process: population, sharded
//	          survey, core.Match, Tables 1 and 2, and the 17 Table 3 scans
//	serve     the advisord binary answering an open-loop /timeout stream
//	ingest    advisord ingesting a survey dataset while lookups run
//
// Usage, from the root of a checkout (perfbench/run.sh builds first):
//
//	perfbench --workload pipeline|serve|ingest [--seed 42] [--seconds 20] [--trace 0|1]
//
// --trace 1 is the separate traced run: it times the calls into each
// layer's public functions and prints the per-layer metrics instead of the
// end-to-end ones. The same binary also serves as the benchmark's own
// worker processes (pipeline-worker, loadgen), so every measured pipeline
// and load generator is a fresh process.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDirName is the checkout-relative directory for build output,
// generated inputs and results.
const buildDirName = ".bench_build"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pipeline-worker":
			os.Exit(pipelineWorker(os.Args[2:]))
		case "loadgen":
			os.Exit(loadgenMain(os.Args[2:]))
		}
	}
	os.Exit(drive(os.Args[1:]))
}

// runCtx is one benchmark invocation.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	build    string // absolute build directory
	advisord string // advisord binary, built into <build>/bin by run.sh
	self     string // this binary, for worker processes
	tmp      string // per-run scratch directory under build
}

// outcome is what a workload driver measured.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string           // failed output checks
	named     map[string]float64 // headline numbers under their workload-specific names
	params    map[string]any     // workload parameters, for provenance
	raw       map[string]any     // raw per-run values, for recomputing medians
}

func (o *outcome) fail(format string, a ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, a...))
}

func drive(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: pipeline, serve or ingest")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	build := fs.String("build", buildDirName, "directory for build output, inputs and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	buildDir, err := filepath.Abs(*build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc := &runCtx{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		build:    buildDir,
		advisord: filepath.Join(buildDir, "bin", "advisord"),
		self:     self,
	}
	stamp := fmt.Sprintf("%s-seed%d-trace%d-%d", rc.workload, rc.seed, *trace, time.Now().UnixNano())
	rc.tmp = filepath.Join(buildDir, "runs", stamp)
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(rc.tmp)

	cpu0 := readCPU()
	var out outcome
	switch rc.workload {
	case "pipeline":
		out, err = drivePipeline(rc)
	case "serve":
		out, err = driveServe(rc)
	case "ingest":
		out, err = driveIngest(rc)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (pipeline, serve or ingest)\n", rc.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Provenance only: the share of the host's CPU time the hypervisor
	// stole during the run, which slows every wall-clock figure.
	out.params["steal_share"] = stealShare(cpu0, readCPU())
	return report(rc, stamp, out)
}

// report prints the run's metrics and saves its provenance and raw values;
// it returns the exit code.
func report(rc *runCtx, stamp string, out outcome) int {
	names := endToEnd
	if rc.traced {
		names = perLayer
	}
	res := result{
		Correct:   len(out.failures) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed + int64(len(out.failures)),
		Metrics:   metricSet(names, out.values),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}

	prov := newProvenance(".", rc.workload, rc.seed, int(rc.seconds/time.Second), rc.traced)
	prov.Params = out.params
	fmt.Printf("# %s seed=%d go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%q source=%.12s\n",
		rc.workload, rc.seed, prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPUModel, prov.Commit, prov.SourceHash)
	keys := make([]string, 0, len(out.params))
	for k := range out.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# param %s = %v\n", k, out.params[k])
	}
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n.name, res.Metrics[n.name].Value, n.unit)
	}
	if out.named == nil {
		out.named = make(map[string]float64)
	}
	out.named["error_frac"] = float64(res.Failed) / float64(res.Attempted)
	named := make([]string, 0, len(out.named))
	for k := range out.named {
		named = append(named, k)
	}
	sort.Strings(named)
	for _, k := range named {
		fmt.Printf("# %-30s %16.6g %s\n", k, out.named[k], unitOf(k))
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}

	resultsDir := filepath.Join(rc.build, "results")
	saved := map[string]any{"provenance": prov, "result": res, "named": out.named, "raw": out.raw}
	if err := os.MkdirAll(resultsDir, 0o755); err == nil {
		if err := writeJSON(filepath.Join(resultsDir, stamp+".json"), saved); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving raw results:", err)
		}
	}

	line, err := jsonLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	return 0
}

// unitOf names the unit of a headline number from its name's suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_per_s", "1/s"}, {"_rps", "1/s"}, {"_s", "s"}, {"_mb", "MB"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "ratio"
}
