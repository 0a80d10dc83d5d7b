package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"timeouts/internal/advisor"
	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

// The traced serve and ingest runs time the advisor's public functions
// in-process, on the same inputs and request mix advisord gets: this is
// where a change to lookup, the HTTP handler, recovery, ingest attribution
// or snapshot publishing shows as its own number.

// layerRounds is how many passes over the request mix each in-process
// serve measurement makes; the median pass is reported.
const layerRounds = 15

// publishEvery mirrors advisor.IngestConfig's default PublishEvery, the
// cadence advisord republishes at while ingesting.
const publishEvery = 4096

// recoverCheckpoint loads the input checkpoint as advisord does and
// publishes it under its epoch on a fresh Advisor.
func recoverCheckpoint(in inputs) (*advisor.Store, *advisor.Advisor, error) {
	ck := &advisor.Checkpointer{Dir: in.ckptDir}
	st, epoch, _, err := ck.Load()
	if err != nil {
		return nil, nil, err
	}
	if st == nil {
		return nil, nil, fmt.Errorf("no checkpoint in %s", in.ckptDir)
	}
	adv := advisor.New()
	adv.Restore(st, epoch)
	return st, adv, nil
}

// lookupArgs is one mix query parsed for Advisor.Lookup.
type lookupArgs struct {
	addr              ipaddr.Addr
	capture, coverage float64
}

func parseMix(mix []query) ([]lookupArgs, []*http.Request, error) {
	args := make([]lookupArgs, len(mix))
	reqs := make([]*http.Request, len(mix))
	for i, q := range mix {
		u, err := url.Parse(q.path)
		if err != nil {
			return nil, nil, err
		}
		v := u.Query()
		a, err := ipaddr.Parse(v.Get("addr"))
		if err != nil {
			return nil, nil, err
		}
		c, err1 := strconv.ParseFloat(v.Get("capture"), 64)
		r, err2 := strconv.ParseFloat(v.Get("coverage"), 64)
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("bad levels in %s", q.path)
		}
		args[i] = lookupArgs{a, c, r}
		if reqs[i], err = http.NewRequest(http.MethodGet, "http://advisord"+q.path, nil); err != nil {
			return nil, nil, err
		}
	}
	return args, reqs, nil
}

// discardWriter is an http.ResponseWriter that keeps only the status, so
// the handler's own cost is what gets timed.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// advisordHandler builds the handler advisord serves, wired as advisord
// wires it by default: adv observed on reg, the 256-slot gate with a 1 s
// Retry-After, a 5 s request deadline, serve metrics, /metrics, ingest
// progress and the checkpointer.
func advisordHandler(adv *advisor.Advisor, ck *advisor.Checkpointer) http.Handler {
	reg := obs.NewRegistry()
	adv.SetObserver(reg)
	ck.SetObserver(reg)
	gate := advisor.NewGate(256, time.Second)
	gate.SetObserver(reg)
	sm := advisor.NewServeMetrics(reg)
	progress := &advisor.IngestProgress{}
	wd := advisor.NewWatchdog(sm, reg, 0, 10*time.Second)
	prom := obs.PromHandler(reg, obs.NewRuntimeCollector(), adv, progress, ck, wd)
	return advisor.NewHandler(adv,
		advisor.WithGate(gate),
		advisor.WithRequestTimeout(5*time.Second),
		advisor.WithServeMetrics(sm),
		advisor.WithMetrics(prom),
		advisor.WithIngestProgress(progress),
		advisor.WithCheckpointer(ck))
}

// serveLayers measures recovery, Advisor.Lookup and the HTTP handler
// in-process, and the cost of timing every handler call against timing
// whole passes (trace.overhead_frac).
func serveLayers(in inputs, mix []query, tr *tracer) (map[string]float64, error) {
	lay := make(map[string]float64)
	sp := tr.begin("advisor.recover", 0)
	var rec []float64
	var adv *advisor.Advisor
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_, a, err := recoverCheckpoint(in)
		if err != nil {
			return nil, err
		}
		rec = append(rec, float64(time.Since(t0)))
		adv = a
	}
	tr.end(sp)
	lay["advisor.recover_ns"] = median(rec)

	args, reqs, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	h := advisordHandler(adv, &advisor.Checkpointer{Dir: in.ckptDir})
	sp = tr.begin("advisor.Lookup", 0)
	var perLookup []float64
	for r := 0; r < layerRounds; r++ {
		t0 := time.Now()
		for _, a := range args {
			if _, err := adv.Lookup(a.addr, a.capture, a.coverage); err != nil {
				return nil, fmt.Errorf("lookup %v: %w", a, err)
			}
		}
		perLookup = append(perLookup, float64(time.Since(t0))/float64(len(args)))
	}
	tr.end(sp)
	lay["advisor.lookup_ns"] = median(perLookup)

	w := &discardWriter{h: make(http.Header)}
	serve := func(r *http.Request) error {
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			return fmt.Errorf("handler answered %s with %d", r.URL, w.status)
		}
		return nil
	}
	// Untimed and per-call-timed passes alternate, so drift on a shared
	// machine falls on both sides of trace.overhead_frac.
	sp = tr.begin("advisor.handler", 0)
	var passNS, timedPass, callNS []float64
	for r := 0; r < layerRounds; r++ {
		t0 := time.Now()
		for _, req := range reqs {
			if err := serve(req); err != nil {
				return nil, err
			}
		}
		passNS = append(passNS, float64(time.Since(t0))/float64(len(reqs)))
		p0 := time.Now()
		for _, req := range reqs {
			t0 := time.Now()
			if err := serve(req); err != nil {
				return nil, err
			}
			callNS = append(callNS, float64(time.Since(t0)))
		}
		timedPass = append(timedPass, float64(time.Since(p0))/float64(len(reqs)))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		if err := serve(req); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	tr.end(sp)
	lay["advisor.handler_ns"] = percentile(sortedCopy(callNS), 50)
	lay["advisor.handler_allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	lay["trace.overhead_frac"] = median(timedPass)/median(passNS) - 1
	return lay, nil
}

// ingestLayers replays advisord's ingest in-process: RecordSource.Read
// into Store.Observe, republishing every publishEvery records, timing 1 in
// sampleEvery reads and observes and every publish. Untimed replays give
// the baseline trace.overhead_frac is measured against.
func ingestLayers(in inputs, lay map[string]float64, tr *tracer) error {
	// Untimed and timed replays alternate, so drift on a shared machine
	// falls on both sides of trace.overhead_frac.
	var base, timed []float64
	var got replay
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		name := "ingest.replay"
		if traced {
			name = "ingest.replay.traced"
		}
		sp := tr.begin(name, 0)
		r, err := replayIngest(in, traced, tr, sp)
		tr.end(sp)
		if err != nil {
			return err
		}
		if traced {
			timed, got = append(timed, r.wall.Seconds()), r
		} else {
			base = append(base, r.wall.Seconds())
		}
	}
	lay["survey.read_ns_per_record"] = got.readNS
	lay["advisor.observe_ns_per_record"] = got.observeNS
	lay["advisor.publish_ns_p50"] = percentile(sortedCopy(got.publishNS), 50)
	lay["advisor.publish_ns_max"] = percentile(sortedCopy(got.publishNS), 100)
	lay["advisor.publishes"] = float64(len(got.publishNS))
	lay["advisor.samples_per_record"] = got.samplesPerRecord
	lay["go.gc_pause_p99_us"] = got.gcPauseP99us
	lay["trace.overhead_frac"] = median(timed)/median(base) - 1
	return nil
}

// replay is what one in-process ingest measured.
type replay struct {
	wall              time.Duration
	readNS, observeNS float64
	publishNS         []float64
	samplesPerRecord  float64
	gcPauseP99us      float64
	records           uint64
}

func replayIngest(in inputs, traced bool, tr *tracer, parent int) (replay, error) {
	var out replay
	st, adv, err := recoverCheckpoint(in)
	if err != nil {
		return out, err
	}
	f, err := os.Open(in.dataset)
	if err != nil {
		return out, err
	}
	defer f.Close()
	src, _, err := survey.OpenSource(f)
	if err != nil {
		return out, err
	}
	samples0 := st.Samples()
	pauses0 := gcPauses()
	var read, observe sinkClock
	publish := func() {
		if !traced {
			adv.Publish(st)
			return
		}
		s0 := tr.now()
		t0 := time.Now()
		adv.Publish(st)
		out.publishNS = append(out.publishNS, float64(time.Since(t0)))
		tr.add("advisor.Publish", parent, s0, tr.now())
	}
	t0 := time.Now()
	for {
		var rec survey.Record
		if traced && read.enter() {
			r0 := time.Now()
			rec, err = src.Read()
			read.timed(r0)
		} else {
			rec, err = src.Read()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		if traced && observe.enter() {
			o0 := time.Now()
			st.Observe(rec)
			observe.timed(o0)
		} else {
			st.Observe(rec)
		}
		out.records++
		if out.records%publishEvery == 0 {
			publish()
		}
	}
	publish()
	out.wall = time.Since(t0)
	if traced {
		out.readNS = float64(read.estimate()) / float64(read.n)
		out.observeNS = float64(observe.estimate()) / float64(observe.n)
		out.samplesPerRecord = float64(st.Samples()-samples0) / float64(out.records)
		out.gcPauseP99us = pauseP99us(pauses0, gcPauses())
	}
	return out, nil
}

// gcPauses reads the runtime's GC pause histogram.
func gcPauses() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// pauseP99us returns the 99th percentile of the GC pauses between two
// histogram reads, as the upper bound of its bucket.
func pauseP99us(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(float64(total)*0.99 + 0.999999)
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= need {
			return after.Buckets[i+1] * 1e6
		}
	}
	return after.Buckets[len(after.Buckets)-1] * 1e6
}
