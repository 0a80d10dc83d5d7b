package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The reported tail is the highest level with at least minBeyond samples
// beyond it: p99 needs 1000 samples, and below that the level steps down.
func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true},
		{999, 98, true},
		{5000, 99, true},
		{500, 98, true},
		{499, 95, true},
		{100, 90, true},
		{51, 80, true},
		{20, 50, true},
		{19, 0, false},
		{1, 0, false},
	} {
		got, ok := tailLevel(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if beyond := tc.n - 1 - rankOf(tc.n, got); beyond < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, got, beyond)
		}
		for _, higher := range tailLevels {
			if higher > got && tc.n-1-rankOf(tc.n, higher) >= minBeyond {
				t.Errorf("n=%d: p%v also has %d beyond it but p%v was reported", tc.n, higher, minBeyond, got)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // 1..1000, reversed
	}
	s := summarize(v, 0)
	if s.N != 1000 || s.P50 != 500 || s.TailLevel != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	few := summarize([]float64{3, 1, 2}, 0)
	if few.TailLevel != 100 || few.Tail != 3 || few.P50 != 2 {
		t.Errorf("summarize of 3 samples = %+v, want the maximum as the tail", few)
	}
	// Failed requests rank beyond every answered one: 20 failures among
	// 1000 requests put the p99 on a failure, but not the p98.
	failed := summarize(v[:980], 20)
	if failed.N != 1000 || failed.Failed != 20 || failed.TailLevel != 99 || failed.Tail != missedUS || failed.P50 != 520 {
		t.Errorf("summarize(980 answered, 20 failed) = %+v, want the p99 missed", failed)
	}
	if few := summarize([]float64{1}, 2); few.P50 != missedUS || few.Tail != missedUS {
		t.Errorf("summarize(1 answered, 2 failed) = %+v, want p50 and tail missed", few)
	}
}

// advisorStub answers like advisord's /timeout: an epoch header and a JSON
// body. behave may delay or replace the answer for request i.
func advisorStub(t *testing.T, behave func(i int64, w http.ResponseWriter) bool) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1) - 1
		if behave != nil && behave(i, w) {
			return
		}
		w.Header().Set("X-Advisor-Epoch", "1")
		fmt.Fprintf(w, `{"timeout_ns":5000000000,"source":"prefix","epoch":1}`+"\n")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func stubMix() []query {
	return []query{{path: "/timeout?addr=1.0.0.1", wantNS: 5000000000}}
}

// A stalled server makes the requests due during the stall late — each is
// timed from when it was due — but none is dropped or left uncounted, and
// the generator's own lateness stays small.
func TestOpenLoopStallMakesLaterRequestsLate(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := advisorStub(t, func(i int64, w http.ResponseWriter) bool {
		if i == 50 {
			time.Sleep(stall)
		}
		return false
	})
	conns := []*conn{{addr: srv.Listener.Addr().String()}}
	defer conns[0].close()
	ph := phase{Name: "stall", Open: true, Rate: 1000, Count: 400, Measured: true}
	r := runPhase(context.Background(), ph, conns, stubMix(), 0, time.Second)
	if r.Attempted != 400 || r.Failed != 0 || r.Status["2xx"] != 400 {
		t.Fatalf("attempted %d failed %d statuses %v; want all 400 answered and counted", r.Attempted, r.Failed, r.Status)
	}
	// Requests 50.. were due 1 ms apart while request 50 was held for
	// 300 ms, so about 300 of them queued behind it: the p50 must show the
	// stall, which a closed loop timing from send would hide.
	if r.Lat.P50 < 50e3 {
		t.Errorf("p50 %.0f us: requests queued behind the stall were not timed from when they were due", r.Lat.P50)
	}
	if r.Lat.Tail < float64((stall * 2 / 3).Microseconds()) {
		t.Errorf("tail %.0f us does not show a %v stall", r.Lat.Tail, stall)
	}
	if r.LagP99us > 5e3 {
		t.Errorf("generator lag p99 %.0f us: waiting on the server was counted as generator lateness", r.LagP99us)
	}
}

// 503s, other 5xx, wrong answers and refused connections all count as
// failed attempts and miss every latency limit. The results survive the
// JSON hand-off from the load generator to the driver, and the driver still
// prints a result line that counts them.
func TestFailuresCount(t *testing.T) {
	srv := advisorStub(t, func(i int64, w http.ResponseWriter) bool {
		switch i % 4 {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return true
		case 2:
			w.Header().Set("X-Advisor-Epoch", "1")
			fmt.Fprintf(w, `{"timeout_ns":1,"epoch":1}`+"\n")
			return true
		case 3:
			http.Error(w, "boom", http.StatusInternalServerError)
			return true
		}
		return false
	})
	conns := []*conn{{addr: srv.Listener.Addr().String()}}
	defer conns[0].close()
	r := runPhase(context.Background(), phase{Name: "mixed", Count: 40, Measured: true}, conns, stubMix(), 0, time.Second)
	if r.Attempted != 40 || r.Failed != 30 || r.Status["503"] != 10 || r.Status["5xx"] != 10 || r.Wrong != 10 {
		t.Errorf("attempted %d failed %d status %v wrong %d; want 40 attempted, 30 failed (10 each of 503, 500, wrong)",
			r.Attempted, r.Failed, r.Status, r.Wrong)
	}
	if r.Lat.Tail != missedUS || r.Lat.Failed != 30 {
		t.Errorf("latency %+v: failed requests must count as missing every latency limit", r.Lat)
	}
	if r.Sources["prefix"] != 10 {
		t.Errorf("sources %v, want the 10 correct answers counted as prefix advice", r.Sources)
	}
	mixed := r

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there now: every dial is refused
	refused := []*conn{{addr: addr}}
	r = runPhase(context.Background(), phase{Name: "refused", Open: true, Rate: 2000, Count: 20, Measured: true}, refused, stubMix(), 0, time.Second)
	if r.Attempted != 20 || r.Failed != 20 || r.ConnErr != 20 {
		t.Errorf("refused: attempted %d failed %d conn errors %d; want 20 of each", r.Attempted, r.Failed, r.ConnErr)
	}
	if len(r.Windows) == 0 || r.Windows[0].Lat.Failed != 20 || r.Windows[0].Lat.Tail != missedUS {
		t.Errorf("refused windows %+v: want every request counted as failed", r.Windows)
	}

	// The hand-off: the generator writes its results as JSON, the driver
	// reads them back.
	file := filepath.Join(t.TempDir(), "load.json")
	if err := writeJSON(file, []phaseResult{mixed, r}); err != nil {
		t.Fatalf("writing results with failures: %v", err)
	}
	var back []phaseResult
	if err := readJSON(file, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, []phaseResult{mixed, r}) {
		t.Errorf("results changed in the JSON hand-off:\n got %+v\nwant %+v", back, []phaseResult{mixed, r})
	}

	out := outcome{values: map[string]float64{"setup_s": 0.1, "work_cpu_s": 1, "peak_rss_mb": 20},
		named: map[string]float64{}, params: map[string]any{}}
	for _, p := range back {
		out.account(p)
	}
	if out.failed != 50 || out.attempted != 60 {
		t.Errorf("outcome counts %d failed of %d attempted, want 50 of 60", out.failed, out.attempted)
	}
	p50, tail, _, _ := windowMedians(back[1].Windows, 50, math.Inf(1))
	out.named["lookup_p50_us"], out.named["lookup_p99_us"] = p50, tail
	rc := &runCtx{workload: "serve", seed: defaultSeed, seconds: time.Second, build: t.TempDir()}
	code, last := captureReport(t, rc, out)
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v", last, err)
	}
	if code == 0 || res.Correct || res.Attempted != 60 || res.Failed < 50 {
		t.Errorf("exit %d, result %+v; want a non-zero exit and a result counting the 50 failures", code, res)
	}
}

// A pipelined closed loop sends every request once over its connections
// and classifies each answer as the one-at-a-time loop does, with a batch
// that does not divide the count; a server that closes the connection
// fails the requests still unanswered on it rather than dropping them.
func TestPipelinedClosedLoop(t *testing.T) {
	srv := advisorStub(t, func(i int64, w http.ResponseWriter) bool {
		if i%5 == 1 {
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return true
		}
		return false
	})
	conns := []*conn{{addr: srv.Listener.Addr().String()}, {addr: srv.Listener.Addr().String()}}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	r := runPhase(context.Background(), phase{Name: "pipelined", Count: 103, Depth: 4, Measured: true}, conns, stubMix(), 0, time.Second)
	if r.Attempted != 103 || r.Failed != 21 || r.Status["503"] != 21 || r.Status["2xx"] != 82 || r.ConnErr != 0 {
		t.Errorf("attempted %d failed %d status %v conn errors %d; want 103 attempted, 21 shed, 82 answered",
			r.Attempted, r.Failed, r.Status, r.ConnErr)
	}

	closing := advisorStub(t, func(i int64, w http.ResponseWriter) bool {
		if i == 2 {
			w.Header().Set("Connection", "close")
		}
		return false
	})
	c := &conn{addr: closing.Listener.Addr().String()}
	defer c.close()
	r = runPhase(context.Background(), phase{Name: "closing", Count: 8, Depth: 4, Measured: true}, []*conn{c}, stubMix(), 0, time.Second)
	if r.Attempted != 8 || r.Status["2xx"] != 3 || r.ConnErr != 5 || r.Failed != 5 {
		t.Errorf("attempted %d status %v conn errors %d failed %d; want 3 answered before the close and 5 failed",
			r.Attempted, r.Status, r.ConnErr, r.Failed)
	}
}

// The reference loop reads the CPU time it ran, and work measured while
// the loop ran at half its nominal speed counts at half its CPU time.
func TestReferenceLoop(t *testing.T) {
	if ref := runRef(); ref <= 0 {
		t.Fatalf("reference loop read %v of CPU time", ref)
	}
	half := 2 * refNominal.Seconds()
	if got := atRefSpeed([]float64{3, 1, 5}, []float64{half, 0.5 * half, half}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("atRefSpeed(median 3 s, loop at half speed) = %v, want 1.5", got)
	}
}

// captureReport runs report and returns its exit code and the last line it
// printed.
func captureReport(t *testing.T, rc *runCtx, out outcome) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := report(rc, "test", out)
	os.Stdout = stdout
	w.Close()
	b, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return code, lines[len(lines)-1]
}

// An epoch that goes backwards on one connection is a failed check.
func TestEpochRegressionFails(t *testing.T) {
	srv := advisorStub(t, func(i int64, w http.ResponseWriter) bool {
		w.Header().Set("X-Advisor-Epoch", fmt.Sprint(10-i))
		fmt.Fprintf(w, `{"timeout_ns":5000000000}`+"\n")
		return true
	})
	conns := []*conn{{addr: srv.Listener.Addr().String()}}
	defer conns[0].close()
	r := runPhase(context.Background(), phase{Name: "epochs", Count: 5, Measured: true}, conns, stubMix(), 0, time.Second)
	if r.EpochBack != 4 || r.Failed != 4 {
		t.Errorf("epoch regressions %d, failed %d; want 4 of each", r.EpochBack, r.Failed)
	}
}

// Every metric name the command prints is declared in BENCHMARK.json with
// the same unit, and every declared metric is printed.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(class string, declared []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		want := map[string]string{}
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		got := metricSet(printed, nil)
		for name, m := range got {
			if u, ok := want[name]; !ok {
				t.Errorf("%s metric %q is printed but not in BENCHMARK.json", class, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q printed in %q, declared in %q", class, name, m.Unit, u)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %q is in BENCHMARK.json but never printed", class, name)
			}
		}
		if len(got) != len(declared) {
			t.Errorf("%s: %d metrics printed, %d declared", class, len(got), len(declared))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestTimeoutNS(t *testing.T) {
	v, ok := timeoutNS([]byte(`{"addr":"1.0.0.1","timeout_s":5,"timeout_ns":5000000000,"source":"prefix"}`))
	if !ok || v != 5000000000 {
		t.Errorf("timeoutNS = %d, %v", v, ok)
	}
	if _, ok := timeoutNS([]byte(`{"error":"no data"}`)); ok {
		t.Error("timeoutNS found a value in a body without one")
	}
}

// Self time subtracts the union of the children's intervals, so
// overlapping children (parallel shards) are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	st := selfTimes(spans)
	if st["root"] != 100-50-10 {
		t.Errorf("root self time %d, want 40", st["root"])
	}
	if st["a"] != 30 || st["b"] != 30 {
		t.Errorf("leaf self times %d, %d; want their durations", st["a"], st["b"])
	}
}

func TestIngestedRecords(t *testing.T) {
	n, err := ingestedRecords("ingested 3194977 records (0 skipped) from x.tosv in 3.549s")
	if err != nil || n != 3194977 {
		t.Errorf("ingestedRecords = %d, %v", n, err)
	}
	if _, err := ingestedRecords("advice: 512 prefixes"); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("ingestedRecords accepted a foreign line: %v", err)
	}
}
