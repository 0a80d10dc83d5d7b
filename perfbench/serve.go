package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"timeouts/internal/advisor"
	"timeouts/internal/netmodel"
)

// The serve workload's open-loop rate ladder, fixed here and never
// calibrated per run: the middle rung gives the latency metrics, and the
// highest rung meeting latencyLimit without a growing backlog is
// serve.max_rps.
var serveLadder = []float64{2000, 4000, 8000}

// rungSeconds is how long each rung runs in one round: long enough for
// 1000 requests, the fewest a p99 needs.
var rungSeconds = []float64{0.5, 0.5, 0.25}

const (
	middleRung = 1
	// latencyLimit is the p99 a rung must meet to count as sustained, and
	// the generator lateness beyond which a latency window does not count.
	latencyLimit = 5 * time.Millisecond
	// serveSetups is how many times a serve run starts advisord; the last
	// start is the one measured under load.
	serveSetups = 5
	// closedCount fixes the serve workload's work: advisord answering
	// closedCount lookups from maxConns callers that each pipeline
	// batches of closedDepth requests, writing the next batch before the
	// last is answered (work_cpu_s is advisord's CPU time for them, at
	// reference host speed; see calib.go). Sent one at a time, the same
	// lookups cost two to three times the CPU time, most of it the Go
	// scheduler going idle and waking between requests, and that share
	// moved from burst to burst with the host's load.
	closedCount = 40000
	closedDepth = 16
	// roundSeconds is the expected length of one serve round (a closed
	// burst and one pass up the ladder), used to fit rounds to the run.
	roundSeconds = 2.5
	// minRounds is how many rounds a serve run makes, at the least.
	minRounds = 3
	// ingestRate is the lookup rate beside ingest, the ladder's lowest.
	ingestRate = 2000
	// ingestMaxS caps one ingest's lookup stream.
	ingestMaxS = 120
	// minIngests is how many ingests a run makes, at the least.
	minIngests = 3
)

// serveParams records the serve and ingest workloads' parameters.
func serveParams() map[string]any {
	return map[string]any{
		"ladder_rps": serveLadder, "middle_rung_rps": serveLadder[middleRung],
		"latency_limit_ms": latencyLimit.Seconds() * 1e3, "conns": maxConns,
		"closed_count": closedCount, "closed_depth": closedDepth, "rung_seconds": rungSeconds, "setups": serveSetups,
		"ref_nominal_s": refNominal.Seconds(), "ref_iters": refIters,
		"ingest_rate_rps": ingestRate, "mix_size": mixSize, "checkpoint_blocks": pipeBlocks,
		"checkpoint_cycles": pipeCycles, "advisord_flags": "defaults, -listen 127.0.0.1:0 -checkpoint-dir",
		"mix": mixChoice,
	}
}

// servePhases is the serve run's load: a warm-up, then rounds of one run
// of the reference loop, one closed-loop burst and one pass up the ladder,
// as many as fit in d. Short interleaved rounds spread every metric's
// samples over the whole run, so a few seconds of interference from the
// rest of the machine move a minority of them and not the median.
func servePhases(d time.Duration) []phase {
	ph := []phase{{Name: "warmup", Open: true, Rate: serveLadder[0], Count: int(serveLadder[0] / 4)}, {Name: "ref-warmup", Ref: true}}
	rounds := max(minRounds, int(d.Seconds()/roundSeconds))
	for r := 1; r <= rounds; r++ {
		ph = append(ph,
			phase{Name: fmt.Sprintf("ref/%d", r), Ref: true, Measured: true},
			phase{Name: fmt.Sprintf("closed/%d", r), Count: closedCount, Depth: closedDepth, Measured: true})
		for i, rate := range serveLadder {
			ph = append(ph, phase{Name: fmt.Sprintf("rung-%.0f/%d", rate, r), Open: true, Rate: rate,
				Count: int(rate * rungSeconds[i]), Measured: true})
		}
	}
	return ph
}

// genProc is one running load-generator process.
type genProc struct {
	cmd *exec.Cmd
	out string
}

// startLoadgen starts a load generator against d.
func startLoadgen(rc *runCtx, d *daemon, mixFile string, phases []phase, n int) (*genProc, error) {
	p := plan{Addr: d.addr, ServerPID: d.cmd.Process.Pid, Mix: mixFile, LimitS: latencyLimit.Seconds(), Phases: phases}
	planFile := filepath.Join(rc.tmp, fmt.Sprintf("plan-%d.json", n))
	if err := writeJSON(planFile, p); err != nil {
		return nil, err
	}
	g := &genProc{out: filepath.Join(rc.tmp, fmt.Sprintf("load-%d.json", n))}
	g.cmd = exec.Command(rc.self, "loadgen", "-plan", planFile, "-out", g.out)
	g.cmd.Stdout, g.cmd.Stderr = os.Stderr, os.Stderr
	g.cmd.SysProcAttr = orphanGuard()
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting load generator: %w", err)
	}
	return g, nil
}

// stop asks the generator to end its until-signal phase.
func (g *genProc) stop() error { return g.cmd.Process.Signal(syscall.SIGTERM) }

// wait waits for the generator and reads its results.
func (g *genProc) wait() ([]phaseResult, error) {
	if err := g.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var res []phaseResult
	return res, readJSON(g.out, &res)
}

// prepareMix builds the run's request mix and saves it for the load
// generator. With checked set, every query carries the timeout an
// in-process Snapshot.Lookup on the input checkpoint gives.
func prepareMix(rc *runCtx, in inputs, checked bool, out *outcome) ([]query, string, error) {
	f, err := os.Open(in.ckptFile())
	if err != nil {
		return nil, "", err
	}
	st, epoch, err := advisor.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		return nil, "", err
	}
	var snap *advisor.Snapshot
	if checked {
		snap = st.Snapshot(epoch)
	}
	blocks := netmodel.New(netmodel.Config{Seed: defaultSeed, Blocks: pipeBlocks}).Blocks()
	mix, err := buildMix(rc.seed, blocks, snap)
	if err != nil {
		return nil, "", err
	}
	out.attempted++
	if d := mixDigest(mix); rc.seed == defaultSeed && d != requestMixDigest {
		out.fail("seed %d request mix digest %s, recorded %s", rc.seed, d, requestMixDigest)
	}
	file := filepath.Join(rc.tmp, "mix.txt")
	return mix, file, os.WriteFile(file, []byte(mixText(mix)), 0o644)
}

// account folds a load phase's requests into the outcome.
func (o *outcome) account(r phaseResult) {
	o.attempted += r.Attempted
	o.failed += r.Failed
	if r.Wrong > 0 || r.EpochBack > 0 {
		o.fail("%s: %d answers differ from the in-process lookup, %d epoch regressions", r.Name, r.Wrong, r.EpochBack)
	}
}

// prefixShare is the share of correct answers that came from the address's
// own /24 rather than the population fallback.
func prefixShare(rs []phaseResult) float64 {
	var prefix, all int64
	for _, r := range rs {
		prefix += r.Sources["prefix"]
		all += r.Sources["prefix"] + r.Sources["population"]
	}
	return float64(prefix) / float64(max(all, 1))
}

// statusCounts adds a phase's status classes to the layer metrics.
func statusCounts(lay map[string]float64, rs []phaseResult) {
	for _, r := range rs {
		lay["serve.status_2xx"] += float64(r.Status["2xx"])
		lay["serve.status_4xx"] += float64(r.Status["4xx"])
		lay["serve.status_5xx"] += float64(r.Status["5xx"])
		lay["serve.status_503"] += float64(r.Status["503"])
		lay["serve.conn_errors"] += float64(r.ConnErr)
		lay["serve.wrong"] += float64(r.Wrong + r.EpochBack)
	}
}

// stopAll stops daemons still running; the benchmark leaves no process
// behind on any path.
func stopAll(ds []*daemon) {
	for _, d := range ds {
		select {
		case <-d.exited:
		default:
			d.kill()
		}
	}
}

// driveServe runs the serve workload: advisord recovers the input
// checkpoint and answers the load generator's closed-loop bursts and
// open-loop ladder.
func driveServe(rc *runCtx) (outcome, error) {
	out := outcome{values: make(map[string]float64), named: make(map[string]float64), params: serveParams()}
	in, err := ensureInputs(rc.build)
	if err != nil {
		return out, err
	}
	mix, mixFile, err := prepareMix(rc, in, true, &out)
	if err != nil {
		return out, err
	}
	var lay map[string]float64
	var tr *tracer
	if rc.traced {
		tr = newTracer(fmt.Sprintf("serve-seed%d", rc.seed))
		if lay, err = serveLayers(in, mix, tr); err != nil {
			return out, err
		}
	}

	var daemons []*daemon
	defer func() { stopAll(daemons) }()
	sp := tr.begin("reference.loop", 0)
	ref, err := newRefClock()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	var setups, setupWall []float64
	var d *daemon
	sp = tr.begin("advisord.setup", 0)
	for i := 0; i < serveSetups; i++ {
		if d, err = startAdvisord(rc, in, "", i); err != nil {
			return out, err
		}
		daemons = append(daemons, d)
		wall, cpu, err := d.waitServing(60 * time.Second)
		if err != nil {
			return out, err
		}
		setups, setupWall = append(setups, cpu.Seconds()), append(setupWall, wall.Seconds())
		if i < serveSetups-1 {
			out.attempted++
			if err := d.stop(); err != nil {
				out.fail("%v", err)
			}
		}
		ref.read()
	}
	tr.end(sp)

	sp = tr.begin("load", 0)
	g, err := startLoadgen(rc, d, mixFile, servePhases(rc.seconds), 0)
	if err != nil {
		return out, err
	}
	res, err := g.wait()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	rss := d.peakRSSMB()
	out.attempted++
	if err := d.stop(); err != nil {
		out.fail("%v", err)
	}

	var closed, closedCPU []float64
	var mid []window
	tails := make(map[float64][]float64) // per rung rate: each round's p99
	sustained := make(map[float64]bool)
	for _, rate := range serveLadder {
		sustained[rate] = true
	}
	var lags []float64
	for _, r := range res {
		out.account(r)
		switch {
		case strings.HasPrefix(r.Name, "ref/"):
			ref.runs = append(ref.runs, r.RefCPUS)
			continue
		case strings.HasPrefix(r.Name, "closed/"):
			closed = append(closed, r.WallS)
			closedCPU = append(closedCPU, r.ServerCPUS)
			continue
		}
		lags = append(lags, r.LagP99us)
		if r.Rate == serveLadder[middleRung] {
			mid = append(mid, r.Windows...)
		}
		tails[r.Rate] = append(tails[r.Rate], r.Lat.Tail)
		if r.Failed > 0 || r.Backlog || r.Lat.TailLevel != 99 {
			sustained[r.Rate] = false
		}
	}
	maxRPS := 0.0
	for _, rate := range serveLadder {
		if sustained[rate] && median(tails[rate]) <= float64(latencyLimit.Microseconds()) {
			maxRPS = rate
		}
	}
	p50, tail, n, lagged := windowMedians(mid, 99, float64(latencyLimit.Microseconds()))
	if n == 0 {
		out.fail("no window at %.0f req/s holds enough timely lookups for a p99", serveLadder[middleRung])
	}
	out.values["setup_s"] = atRefSpeed(setups, ref.runs)
	out.values["work_cpu_s"] = atRefSpeed(closedCPU, ref.runs)
	out.values["peak_rss_mb"] = rss
	out.named["lookup_p50_us"] = p50
	out.named["lookup_p99_us"] = tail
	out.named["serve_max_rps"] = maxRPS
	out.named["closed_loop_rps"] = closedCount / median(closed)
	out.named["prefix_answer_share"] = prefixShare(res)
	out.params["lookup"] = fmt.Sprintf("GET /timeout at %.0f req/s, timed from when due; median over %v windows of p50 and p99",
		serveLadder[middleRung], latencyWindow)
	out.params["lookup_samples"] = n
	out.params["lookup_windows_set_aside_for_generator_lag"] = lagged
	out.raw = map[string]any{"setup_s": setups, "setup_wall_s": setupWall, "closed_wall_s": closed, "closed_cpu_s": closedCPU,
		"ref_cpu_s": ref.runs, "phases": res, "peak_rss_mb": rss}

	if rc.traced {
		statusCounts(lay, res)
		lay["serve.max_rps"] = maxRPS
		lay["serve.lookup_p50_us"] = p50
		lay["serve.lookup_p99_us"] = tail
		lay["serve.generator_lag_p99_us"] = median(lags)
		lay["net.residual_us"] = p50 - lay["advisor.handler_ns"]/1e3
		finishTrace(rc, tr, lay, &out)
	}
	return out, nil
}

// driveIngest runs the ingest workload: advisord recovers the input
// checkpoint and ingests the vantage-c dataset while the load generator
// sends lookups at the ladder's lowest rate. Each ingest is a fresh
// advisord; the run repeats them for its duration.
func driveIngest(rc *runCtx) (outcome, error) {
	out := outcome{values: make(map[string]float64), named: make(map[string]float64), params: serveParams()}
	in, err := ensureInputs(rc.build)
	if err != nil {
		return out, err
	}
	mix, mixFile, err := prepareMix(rc, in, false, &out)
	if err != nil {
		return out, err
	}
	var lay map[string]float64
	var tr *tracer
	if rc.traced {
		tr = newTracer(fmt.Sprintf("ingest-seed%d", rc.seed))
		if lay, err = serveLayers(in, mix, tr); err != nil {
			return out, err
		}
		if err := ingestLayers(in, lay, tr); err != nil {
			return out, err
		}
	}

	sp := tr.begin("reference.loop", 0)
	ref, err := newRefClock()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	var setups, setupWall, rss, lags, work, recs, cpu []float64
	var windows []window
	var all []phaseResult
	// Ingests run back to back while the next one is expected to finish
	// within the run's time, and at least minIngests times; the traced run
	// makes one.
	deadline := time.Now().Add(rc.seconds)
	var longest time.Duration
	for i := 0; i == 0 || (!rc.traced && (i < minIngests || time.Now().Add(longest).Before(deadline))); i++ {
		t0 := time.Now()
		sp := tr.begin("advisord.ingest", 0)
		r, err := ingestOnce(rc, in, mixFile, i, &out)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		sp = tr.begin("reference.loop", 0)
		ref.read()
		tr.end(sp)
		longest = max(longest, time.Since(t0))
		setups, setupWall, rss = append(setups, r.setup), append(setupWall, r.setupWall), append(rss, r.rss)
		work = append(work, r.work)
		cpu = append(cpu, r.cpu)
		recs = append(recs, float64(r.records)/r.work)
		for _, p := range r.load {
			out.account(p)
			windows = append(windows, p.Windows...)
			lags = append(lags, p.LagP99us)
			all = append(all, p)
		}
	}
	// Lookups beside ingest share two CPUs with it, so the generator's own
	// lateness is part of what the workload measures: no window is dropped.
	p50, tail, n, _ := windowMedians(windows, 99, math.Inf(1))
	recsPerS := median(recs)
	if n == 0 {
		out.fail("no window of lookups beside ingest holds enough for a p99")
	}
	out.values["setup_s"] = atRefSpeed(setups, ref.runs)
	out.values["work_cpu_s"] = atRefSpeed(cpu, ref.runs)
	out.named["ingest_s"] = median(work)
	out.values["peak_rss_mb"] = median(rss)
	out.named["ingest_records_per_s"] = recsPerS
	out.named["lookup_p50_us"] = p50
	out.named["lookup_p99_us"] = tail
	out.named["prefix_answer_share"] = prefixShare(all)
	out.params["lookup"] = fmt.Sprintf("GET /timeout at %d req/s beside ingest, timed from when due; median over %v windows of p50 and p99",
		ingestRate, latencyWindow)
	out.params["lookup_samples"] = n
	out.raw = map[string]any{"setup_s": setups, "setup_wall_s": setupWall, "ingest_s": work, "ingest_cpu_s": cpu,
		"ref_cpu_s": ref.runs, "records_per_s": recs, "peak_rss_mb": rss, "phases": all}

	if rc.traced {
		statusCounts(lay, all)
		lay["ingest.records_per_s"] = recsPerS
		lay["serve.lookup_p50_us"] = p50
		lay["serve.lookup_p99_us"] = tail
		lay["serve.generator_lag_p99_us"] = median(lags)
		lay["net.residual_us"] = p50 - lay["advisor.handler_ns"]/1e3
		finishTrace(rc, tr, lay, &out)
	}
	return out, nil
}

// ingestRun is what one ingest measured.
type ingestRun struct {
	setup, work, rss float64
	setupWall        float64
	cpu              float64 // advisord's CPU seconds from serving to ingested
	records          uint64
	load             []phaseResult
}

// ingestOnce starts an advisord that recovers the checkpoint and ingests
// the dataset, runs the lookup stream beside it until the ingest is done,
// checks the published snapshot and drains advisord. Both processes are
// stopped on every path.
func ingestOnce(rc *runCtx, in inputs, mixFile string, i int, out *outcome) (r ingestRun, err error) {
	d, err := startAdvisord(rc, in, in.dataset, i)
	if err != nil {
		return r, err
	}
	defer stopAll([]*daemon{d})
	wall, cpu, err := d.waitServing(60 * time.Second)
	if err != nil {
		return r, err
	}
	// advisord starts ingesting as soon as it serves, so the CPU it has
	// spent past set-up is ingest work: set-up and work together cover all
	// of advisord's CPU time up to the end of the ingest.
	r.setup, r.setupWall = cpu.Seconds(), wall.Seconds()
	g, err := startLoadgen(rc, d, mixFile, []phase{{
		Name: "ingest", Open: true, Rate: ingestRate, Count: ingestRate * ingestMaxS,
		UntilSignal: true, Measured: true,
	}}, i)
	if err != nil {
		return r, err
	}
	genDone := false
	defer func() {
		if !genDone {
			_ = g.stop() // reaping is what matters here; the run already failed
			_, _ = g.wait()
		}
	}()
	serving, err := d.waitLine("serving on ", time.Second)
	if err != nil {
		return r, err
	}
	ingested, err := d.waitLine("ingested ", ingestMaxS*time.Second)
	if err != nil {
		return r, err
	}
	r.cpu = (taskCPU(d.cmd.Process.Pid) - cpu).Seconds()
	if _, err = d.waitLine("advice: ", 60*time.Second); err != nil {
		return r, err
	}
	if err = g.stop(); err != nil {
		return r, err
	}
	genDone = true
	if r.load, err = g.wait(); err != nil {
		return r, err
	}
	if r.records, err = ingestedRecords(ingested.text); err != nil {
		return r, err
	}
	r.work = ingested.at.Sub(serving.at).Seconds()

	out.attempted++
	if body, err := d.get("/snapshot"); err != nil {
		out.fail("ingest %d: %v", i, err)
	} else if sum := sha256.Sum256(blankEpoch(body)); hex.EncodeToString(sum[:]) != snapshotDigest {
		out.fail("ingest %d: final /snapshot digest %x, reference %s", i, sum, snapshotDigest)
	}
	r.rss = d.peakRSSMB()
	out.attempted++
	if err := d.stop(); err != nil {
		out.fail("%v", err)
	}
	return r, nil
}

// ingestedRecords parses advisord's "ingested N records ..." line.
func ingestedRecords(line string) (uint64, error) {
	f := strings.Fields(line)
	if len(f) < 3 || f[0] != "ingested" || f[2] != "records" {
		return 0, fmt.Errorf("unexpected advisord line %q", line)
	}
	return strconv.ParseUint(f[1], 10, 64)
}

// finishTrace completes a traced serve or ingest run: error accounting,
// the share of traced wall time the top-level spans account for, and the
// span file.
func finishTrace(rc *runCtx, tr *tracer, lay map[string]float64, out *outcome) {
	lay["error_frac"] = float64(out.failed+int64(len(out.failures))) / float64(max(out.attempted, 1))
	var stages int64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			stages += s.End - s.Start
		}
	}
	lay["pipeline.accounted_frac"] = float64(stages) / float64(tr.now())
	out.raw["self_ns"] = selfTimes(tr.spans)
	dir := filepath.Join(rc.build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else if err := tr.write(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", rc.workload, rc.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	out.values = lay
}
