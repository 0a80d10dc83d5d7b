package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
	"timeouts/internal/zmapper"
)

// The pipeline workload: Quick-scale population, a survey long enough to
// give Match real work, and the paper's 17 Table 3 scans, on 2 shards.
const (
	pipeBlocks  = 512
	pipeCycles  = 24
	pipeScans   = 17
	shards      = 2
	setupProbes = 11 // set-up-only worker processes per run
	minWorkers  = 3  // pipeline workers per run, at the least
	defaultSeed = 42
)

// zmapSrc is the scanner address the experiments package uses, in reserved
// space outside every population.
var zmapSrc = ipaddr.MustParse("240.0.2.1")

// pipelineReport is what one pipeline worker process reports.
type pipelineReport struct {
	Seed uint64 `json:"seed"`
	// SetupS is the worker's CPU time, all threads, from its start to the
	// end of the population and fabric build: process start-up, package
	// initialization and one cold build. SetupWallS is the build's wall time.
	SetupS     float64            `json:"setup_s"`
	SetupWallS float64            `json:"setup_wall_s"`
	PipelineS  float64            `json:"pipeline_s"`
	CPUS       float64            `json:"pipeline_cpu_s"` // CPU time of the pipeline, all threads
	ScanS      []float64          `json:"scan_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Digest     string             `json:"digest"`
	Summary    string             `json:"summary"`
	Failures   []string           `json:"failures"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	SelfNS     map[string]int64   `json:"self_ns,omitempty"` // per span name, traced runs
}

// newModel builds one shard's fabric: a Model over the shared population
// with the survey vantage and the scanner registered.
func newModel(pop *netmodel.Population) simnet.Fabric {
	m := netmodel.NewModel(pop)
	m.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	m.AddVantage(zmapSrc, ipmeta.NorthAmerica)
	return m
}

// scanConfig is the i-th Table 3 scan: a week apart, at the experiments
// package's alternating start hours.
func scanConfig(seed uint64, i int, pop *netmodel.Population) zmapper.Config {
	startHour := []float64{12.1, 2.7, 12.1, 13.9, 0.95, 12.0}[i%6]
	return zmapper.Config{
		Src:       zmapSrc,
		Continent: ipmeta.NorthAmerica,
		TargetN:   pop.NumAddrs(),
		TargetAt:  pop.AddrAt,
		Duration:  90 * time.Minute,
		Start:     simnet.Time(float64(i*7)*24*float64(time.Hour) + startHour*float64(time.Hour)),
		Seed:      seed + uint64(i)*1000003,
	}
}

// setup builds the population and the shard fabrics once, in a process
// that has built nothing yet, and records its cost in rep.
func setup(seed uint64, tr *tracer, rep *pipelineReport) (*netmodel.Population, []simnet.Fabric) {
	sp := tr.begin("setup", 0)
	t0 := time.Now()
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: pipeBlocks})
	models := make([]simnet.Fabric, shards)
	for k := range models {
		models[k] = newModel(pop)
	}
	rep.SetupWallS = time.Since(t0).Seconds()
	rep.SetupS = taskCPU(os.Getpid()).Seconds()
	tr.end(sp)
	return pop, models
}

// runPipeline runs the pipeline once in this process. With traced set, the
// calls into each layer are timed and report.Layers filled; spans are kept
// in tr.
func runPipeline(seed uint64, traced bool, tr *tracer) pipelineReport {
	rep := pipelineReport{Seed: seed}
	fail := func(format string, a ...any) { rep.Failures = append(rep.Failures, fmt.Sprintf(format, a...)) }
	pop, models := setup(seed, tr, &rep)

	var surveyTap, scanTap fabricTap
	surveyFabric := func(k int) simnet.Fabric { return models[k] }
	scanFabric := func(int) simnet.Fabric { return newModel(pop) }
	if traced {
		surveyFabric, scanFabric = surveyTap.wrap(surveyFabric), scanTap.wrap(scanFabric)
	}
	lay := make(map[string]float64)
	var summary strings.Builder

	start, cpu0 := time.Now(), taskCPU(os.Getpid())
	root := tr.begin("pipeline", 0)

	// Survey, materialized as the CLIs' MemWriter does.
	reg := obs.NewRegistry()
	cfg := survey.Config{Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: pipeCycles, Seed: seed, Obs: reg}
	var sink survey.RecordWriter
	mem, timed := &survey.MemWriter{}, &timedRecords{}
	if traced {
		sink = timed
	} else {
		sink = mem
	}
	sp := tr.begin("survey.RunSharded", root)
	s0 := tr.now()
	t0 := time.Now()
	st, err := survey.RunSharded(cfg, shards, surveyFabric, sink)
	surveyNS := time.Since(t0)
	tr.end(sp)
	if err != nil {
		fail("survey: %v", err)
		return rep
	}
	if traced {
		mem = &timed.mem
		firstAt := timed.clock.first.Sub(t0)
		tr.add("survey.shards", sp, s0, s0+int64(firstAt))
		tr.add("simnet.merge", sp, s0+int64(firstAt), s0+int64(surveyNS))
		lay["survey.shard_ns"] = float64(firstAt)
		lay["simnet.merge_ns"] = float64(surveyNS-firstAt) - float64(timed.clock.estimate())
		sum, busy := surveyTap.totals()
		lay["simnet.shard_skew"] = skew(busy)
		lay["survey.probes_per_s"] = float64(st.Probes) / surveyNS.Seconds()
		addFabric(lay, sum, busy)
	}
	records := mem.Records
	ctr := func(name string) uint64 { return reg.Counter(name).Value() }
	lay["simnet.probes_sent"] = float64(ctr("simnet.probes_sent"))
	lay["simnet.deliveries"] = float64(ctr("simnet.deliveries"))
	lay["simnet.packets_received"] = float64(ctr("simnet.packets_received"))
	lay["survey.records"] = float64(len(records))
	lay["survey.response_rate"] = float64(ctr("survey.matched")) / float64(ctr("survey.probes"))
	if want := uint64(pipeBlocks * 256 * pipeCycles); st.Probes != want || ctr("survey.probes") != want || ctr("simnet.probes_sent") != want {
		fail("survey probes: stats %d, survey.probes %d, simnet.probes_sent %d, want %d",
			st.Probes, ctr("survey.probes"), ctr("simnet.probes_sent"), want)
	}
	if st.Matched != ctr("survey.matched") {
		fail("survey matched: stats %d, survey.matched %d", st.Matched, ctr("survey.matched"))
	}

	// Match and the paper's tables.
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	sp = tr.begin("core.Match", root)
	t0 = time.Now()
	res := core.Match(records, core.MatchOptionsForCycles(pipeCycles))
	lay["core.match_ns"] = float64(time.Since(t0))
	tr.end(sp)
	if traced {
		runtime.ReadMemStats(&ms1)
		lay["core.match_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	}
	lay["core.records_per_s"] = float64(len(records)) / (lay["core.match_ns"] / 1e9)

	sp = tr.begin("core.BuildTable1", root)
	t0 = time.Now()
	t1 := res.BuildTable1()
	lay["core.table1_ns"] = float64(time.Since(t0))
	tr.end(sp)
	if traced {
		// The delayed part of Table 1's Survey + Delayed row: responses the
		// matcher recovered past the prober's timeout, on kept addresses.
		var delayed int
		for _, ar := range res.Addr {
			if !ar.Discarded() {
				delayed += len(ar.Delayed)
			}
		}
		lay["core.delayed_recovered"] = float64(delayed)
	}
	if t1.SurveyPackets != ctr("survey.matched") {
		fail("table 1 survey-detected packets %d != survey.matched %d", t1.SurveyPackets, ctr("survey.matched"))
	}
	if t1.NaivePackets < t1.SurveyPackets || t1.CombinedAddrs > t1.NaiveAddrs {
		fail("table 1 rows out of order: %+v", t1)
	}

	sp = tr.begin("core.PerAddressQuantiles", root)
	t0 = time.Now()
	q := core.PerAddressQuantiles(res.Samples(true))
	lay["core.quantiles_ns"] = float64(time.Since(t0))
	tr.end(sp)

	sp = tr.begin("core.TimeoutMatrix", root)
	t0 = time.Now()
	matrix := core.TimeoutMatrix(q)
	lay["core.matrix_ns"] = float64(time.Since(t0))
	tr.end(sp)
	if matrix.Addresses != len(q) {
		fail("table 2 covers %d addresses, quantiles %d", matrix.Addresses, len(q))
	}
	fmt.Fprintf(&summary, "table 1\n%stable 2\n%s", t1.Format(), matrix.FormatSeconds())

	// The Table 3 scans, each followed by its Figure 7 analysis.
	var scanWall, scanShards, scanMerge time.Duration
	var scanProbes uint64
	for i := 0; i < pipeScans; i++ {
		scfg := scanConfig(seed, i, pop)
		var clock sinkClock
		sc := &zmapper.Scan{}
		sp = tr.begin("zmapper.RunShardedInto", root)
		s0 = tr.now()
		t0 = time.Now()
		probes, _, err := zmapper.RunShardedInto(scfg, shards, scanFabric, func(r zmapper.Response) {
			if !traced || !clock.enter() {
				sc.Responses = append(sc.Responses, r)
				return
			}
			c0 := time.Now()
			sc.Responses = append(sc.Responses, r)
			clock.timed(c0)
		})
		wall := time.Since(t0)
		tr.end(sp)
		if err != nil {
			fail("scan %d: %v", i, err)
			return rep
		}
		if probes != uint64(pop.NumAddrs()) {
			fail("scan %d sent %d probes, want %d", i, probes, pop.NumAddrs())
		}
		scanProbes += probes
		scanWall += wall
		if traced && clock.n > 0 {
			first := clock.first.Sub(t0)
			tr.add("zmapper.shards", sp, s0, s0+int64(first))
			tr.add("zmapper.merge", sp, s0+int64(first), s0+int64(wall))
			scanShards += first
			scanMerge += wall - first - time.Duration(clock.estimate())
		}

		sp = tr.begin("zmapper.RTTPercentiles", root)
		rtts := sc.RTTPercentiles()
		tr.end(sp)
		if len(rtts) == 0 {
			fail("scan %d: no responses", i)
			continue
		}
		fmt.Fprintf(&summary, "scan %2d probes %d responses %d median %v >1s %.4f >75s %.5f p99.9 %v\n",
			i+1, probes, len(sc.Responses), stats.Percentile(rtts, 50),
			stats.FracAbove(rtts, time.Second), stats.FracAbove(rtts, 75*time.Second),
			stats.Percentile(rtts, 99.9))
		rep.ScanS = append(rep.ScanS, time.Since(t0).Seconds())
	}
	tr.end(root)
	rep.PipelineS = time.Since(start).Seconds()
	rep.CPUS = (taskCPU(os.Getpid()) - cpu0).Seconds()

	rep.Summary = summary.String()
	sum := sha256.Sum256([]byte(rep.Summary))
	rep.Digest = hex.EncodeToString(sum[:])
	if seed == defaultSeed && rep.Digest != pipelineDigest {
		fail("seed %d pipeline summary digest %s, recorded %s", seed, rep.Digest, pipelineDigest)
	}
	rep.PeakRSSMB = peakRSSMB("self")

	if traced {
		lay["zmapper.scan_ns"] = float64(scanShards)
		lay["zmapper.merge_ns"] = float64(scanMerge)
		lay["zmapper.probes_per_s"] = float64(scanProbes) / scanWall.Seconds()
		ssum, sbusy := scanTap.totals()
		psum, pbusy := surveyTap.totals()
		addFabric(lay, merged(psum, ssum), append(pbusy, sbusy...))
		var stages int64
		for _, s := range tr.spans {
			if s.Parent == root {
				stages += s.End - s.Start
			}
		}
		lay["pipeline.accounted_frac"] = float64(stages) / float64(rep.PipelineS*1e9)
		rep.Layers = lay
	}
	return rep
}

// addFabric derives the Fabric-boundary layer metrics: Respond cost from
// the sampled calls, and the simulator's own time (scheduler, prober,
// transport and wire) as shard busy time minus estimated Respond time.
func addFabric(lay map[string]float64, sum shardClock, busy []time.Duration) {
	if sum.samples == 0 {
		return
	}
	perCall := float64(sum.respondNS) / float64(sum.samples)
	var busyNS float64
	for _, b := range busy {
		busyNS += float64(b)
	}
	lay["netmodel.respond_calls"] = float64(sum.calls)
	lay["netmodel.respond_ns_per_call"] = perCall
	lay["sim.self_ns"] = busyNS - perCall*float64(sum.calls)
	if sum.codecSamples > 0 {
		lay["wire.decode_ns_per_pkt"] = float64(sum.decodeNS) / float64(sum.codecSamples)
		lay["wire.encode_ns_per_pkt"] = float64(sum.encodeNS) / float64(sum.codecSamples)
	}
}

// merged adds two shard-clock totals.
func merged(a, b shardClock) shardClock {
	a.calls += b.calls
	a.respondNS += b.respondNS
	a.samples += b.samples
	a.decodeNS += b.decodeNS
	a.encodeNS += b.encodeNS
	a.codecSamples += b.codecSamples
	return a
}

// skew returns the slowest busy span over the mean (1 when balanced).
func skew(busy []time.Duration) float64 {
	if len(busy) == 0 {
		return 0
	}
	var sum, worst time.Duration
	for _, b := range busy {
		sum += b
		worst = max(worst, b)
	}
	return float64(worst) / (float64(sum) / float64(len(busy)))
}

// pipelineWorker is the pipeline-worker subcommand: one pipeline (or, with
// -setup-only, only its set-up) in a fresh process, its report written as
// JSON.
func pipelineWorker(args []string) int {
	fs := flag.NewFlagSet("pipeline-worker", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "population and survey seed")
	setupOnly := fs.Bool("setup-only", false, "build the population and fabrics, then stop")
	traced := fs.Bool("trace", false, "time the calls into each layer")
	out := fs.String("out", "", "report file")
	spans := fs.String("spans", "", "span file (traced runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var tr *tracer
	if *traced {
		tr = newTracer(fmt.Sprintf("pipeline-seed%d", *seed))
	}
	var rep pipelineReport
	if *setupOnly {
		rep.Seed = *seed
		setup(*seed, nil, &rep)
	} else {
		rep = runPipeline(*seed, *traced, tr)
	}
	if tr != nil && *spans != "" {
		if err := tr.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "pipeline-worker:", err)
			return 1
		}
		rep.SelfNS = selfTimes(tr.spans)
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline-worker:", err)
		return 1
	}
	return 0
}

// spawnPipeline runs one pipeline worker process with extra arguments and
// reads its report.
func spawnPipeline(rc *runCtx, name string, extra ...string) (pipelineReport, error) {
	out := filepath.Join(rc.tmp, name+".json")
	args := append([]string{"pipeline-worker", "-seed", strconv.FormatUint(rc.seed, 10), "-out", out}, extra...)
	cmd := exec.Command(rc.self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = orphanGuard()
	var rep pipelineReport
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("pipeline worker: %w", err)
	}
	return rep, readJSON(out, &rep)
}

// drivePipeline runs pipeline workers back to back for the run's duration
// (at least one). The traced run instead runs one untraced and one traced
// worker: the first gives the baseline the tracing overhead is measured
// against, the second the per-layer metrics.
func drivePipeline(rc *runCtx) (outcome, error) {
	out := outcome{
		values: make(map[string]float64),
		named:  make(map[string]float64),
		params: map[string]any{"blocks": pipeBlocks, "cycles": pipeCycles, "scans": pipeScans, "shards": shards,
			"setup_probes": setupProbes, "vantage": "w", "ref_nominal_s": refNominal.Seconds(), "ref_iters": refIters},
	}
	if err := os.MkdirAll(filepath.Join(rc.build, "results"), 0o755); err != nil {
		return out, err
	}
	var reps []pipelineReport
	check := func(rep pipelineReport) {
		out.attempted++
		if len(rep.Failures) > 0 {
			out.failures = append(out.failures, rep.Failures...)
		}
	}
	if rc.traced {
		// Two untraced and two traced workers, interleaved so drift on a
		// shared machine falls on both sides of trace.overhead_frac.
		var base, traced []float64
		var rep pipelineReport
		for i := 0; i < 4; i++ {
			var extra []string
			if i%2 == 1 {
				extra = []string{"-trace", "-spans", filepath.Join(rc.build, "results", fmt.Sprintf("spans-pipeline-seed%d.json", rc.seed))}
			}
			r, err := spawnPipeline(rc, fmt.Sprintf("pipeline-%d", i), extra...)
			if err != nil {
				return out, err
			}
			check(r)
			if i%2 == 1 {
				traced, rep = append(traced, r.PipelineS), r
			} else {
				base = append(base, r.PipelineS)
			}
		}
		for k, v := range rep.Layers {
			out.values[k] = v
		}
		out.values["trace.overhead_frac"] = median(traced)/median(base) - 1
		out.values["error_frac"] = float64(len(out.failures)) / float64(out.attempted)
		out.raw = map[string]any{"untraced_pipeline_s": base, "traced_pipeline_s": traced, "traced": rep}
		return out, nil
	}
	ref, err := newRefClock()
	if err != nil {
		return out, err
	}
	// Set-up is measured cold, once per process: in setupProbes processes
	// that do nothing else, and in every pipeline worker.
	var setup, setupWall []float64
	for i := 0; i < setupProbes; i++ {
		rep, err := spawnPipeline(rc, fmt.Sprintf("setup-%d", i), "-setup-only")
		if err != nil {
			return out, err
		}
		setup, setupWall = append(setup, rep.SetupS), append(setupWall, rep.SetupWallS)
	}
	ref.read()
	// Workers run back to back while the next one is expected to finish
	// within the run's time, and at least minWorkers times.
	deadline := time.Now().Add(rc.seconds)
	var longest time.Duration
	for len(reps) < minWorkers || time.Now().Add(longest).Before(deadline) {
		t0 := time.Now()
		rep, err := spawnPipeline(rc, fmt.Sprintf("pipeline-%d", len(reps)))
		if err != nil {
			return out, err
		}
		ref.read()
		longest = max(longest, time.Since(t0))
		check(rep)
		reps = append(reps, rep)
	}
	var rss, cpu, work, scans []float64
	for _, r := range reps {
		setup, setupWall = append(setup, r.SetupS), append(setupWall, r.SetupWallS)
		rss = append(rss, r.PeakRSSMB)
		cpu = append(cpu, r.CPUS)
		work = append(work, r.PipelineS)
		for _, s := range r.ScanS {
			scans = append(scans, s*1e6)
		}
	}
	lat := summarize(scans, 0)
	out.values["setup_s"] = atRefSpeed(setup, ref.runs)
	out.values["work_cpu_s"] = atRefSpeed(cpu, ref.runs)
	out.named["pipeline_s"] = median(work)
	out.values["peak_rss_mb"] = median(rss)
	out.named["scan_p50_us"] = lat.P50
	out.named["scan_tail_us"] = lat.Tail
	out.params["scan"] = "one zmap scan and its analysis, wall time"
	out.params["scan_samples"] = lat.N
	out.params["scan_tail_level"] = lat.TailLevel
	out.raw = map[string]any{"setup_s": setup, "setup_wall_s": setupWall, "pipeline_s": work, "pipeline_cpu_s": cpu,
		"ref_cpu_s": ref.runs, "scan_us": scans, "peak_rss_mb": rss, "digests": digestsOf(reps)}
	return out, nil
}

// digestsOf lists the workers' summary digests.
func digestsOf(reps []pipelineReport) []string {
	var d []string
	for _, r := range reps {
		d = append(d, r.Digest)
	}
	return d
}
