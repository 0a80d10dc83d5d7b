package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is a process of its own, so advisord shares the
// machine with a client as a real deployment would, not with the
// benchmark's bookkeeping. It holds maxConns keep-alive connections
// and runs one goroutine per connection; a pipelined closed loop adds a
// writer goroutine per connection, and GOMAXPROCS, nproc by default,
// bounds how many of them run at once.

// maxConns bounds the generator's connections, its reading goroutines and
// the threads the reference loop runs on.
const maxConns = 2

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 10 * time.Second

// latencyWindow is the span of due times each latency window covers.
const latencyWindow = time.Second

// phase is one stretch of load.
type phase struct {
	Name string `json:"name"`
	// Open is an open loop: request i is due at start + i/Rate whether or
	// not earlier ones have been answered, and is timed from when it was
	// due. Otherwise each connection sends its next requests as soon as
	// earlier answers arrive (a closed loop) until Count are answered.
	Open  bool    `json:"open"`
	Rate  float64 `json:"rate"`
	Count int     `json:"count"`
	// Depth is how many requests each connection of a closed loop writes
	// at once (at least 1); see pipelined.
	Depth int `json:"depth,omitempty"`
	// Ref runs the reference loop (see calib.go) instead of sending
	// requests.
	Ref bool `json:"ref,omitempty"`
	// UntilSignal keeps an open loop going (up to Count requests) until the
	// generator receives SIGTERM; requests due before the signal are still
	// sent and counted.
	UntilSignal bool `json:"until_signal"`
	// Measured phases are reported; others only warm the server up.
	Measured bool `json:"measured"`
}

// plan is what one generator process runs.
type plan struct {
	Addr string `json:"addr"`
	// ServerPID is the process whose CPU time each phase reports.
	ServerPID int     `json:"server_pid"`
	Mix       string  `json:"mix"`     // file of "path want_ns" lines
	LimitS    float64 `json:"limit_s"` // latency limit for the backlog verdict
	Phases    []phase `json:"phases"`
}

// phaseResult is what the generator measured in one phase. Latencies are
// in microseconds from when each request was due (open loop) or sent
// (closed loop); a failed request has none and ranks beyond every answered
// one (see summarize).
type phaseResult struct {
	Name      string           `json:"name"`
	Rate      float64          `json:"rate"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Status    map[string]int64 `json:"status"`
	ConnErr   int64            `json:"conn_errors"`
	Wrong     int64            `json:"wrong"`
	EpochBack int64            `json:"epoch_regressions"`
	// Sources counts correct answers by the advice's source: "prefix"
	// (the address's own /24) or "population" (the fallback matrix).
	Sources map[string]int64 `json:"sources"`
	Lat     latencySummary   `json:"latency_us"`
	// Windows summarizes each window of an open loop's schedule on its
	// own, so one stall moves one window's tail, not the run's.
	Windows  []window `json:"windows,omitempty"`
	LagP99us float64  `json:"generator_lag_p99_us"`
	WallS    float64  `json:"wall_s"`
	DrainS   float64  `json:"drain_s"`
	Backlog  bool     `json:"backlog"`
	// ServerCPUS is the CPU time the server spent during the phase.
	ServerCPUS float64 `json:"server_cpu_s"`
	// RefCPUS is a reference phase's mean CPU time per loop.
	RefCPUS float64 `json:"ref_cpu_s,omitempty"`
}

func loadgenMain(args []string) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	planFile := fs.String("plan", "", "plan file (JSON)")
	out := fs.String("out", "", "result file (JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var p plan
	if err := readJSON(*planFile, &p); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	mix, err := readMix(p.Mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	res := runPlan(ctx, p, mix)
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	return 0
}

// readMix loads a request mix saved with mixText.
func readMix(path string) ([]query, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mix []query
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		p, w, ok := strings.Cut(line, " ")
		want, err := strconv.ParseInt(w, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad mix line %q", line)
		}
		mix = append(mix, query{path: p, wantNS: want})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix %s", path)
	}
	return mix, nil
}

// runPlan runs the phases in order over one set of connections, which stay
// open across phases as a long-lived client's would.
func runPlan(ctx context.Context, p plan, mix []query) []phaseResult {
	conns := make([]*conn, maxConns)
	for i := range conns {
		conns[i] = &conn{addr: p.Addr}
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	var out []phaseResult
	next := 0 // position in the mix, carried across phases
	for _, ph := range p.Phases {
		if ph.Ref {
			if r := runRef(); ph.Measured {
				out = append(out, phaseResult{Name: ph.Name, RefCPUS: r.Seconds()})
			}
			continue
		}
		cpu0 := taskCPU(p.ServerPID)
		r := runPhase(ctx, ph, conns, mix, next, time.Duration(p.LimitS*float64(time.Second)))
		r.ServerCPUS = (taskCPU(p.ServerPID) - cpu0).Seconds()
		next += int(r.Attempted)
		if ph.Measured {
			out = append(out, r)
		}
	}
	return out
}

// outcome of one request, by status class.
const (
	okReq = iota
	status4xx
	status503
	status5xx
	connErr
	wrongBody
	epochBack
)

// conn is one keep-alive connection, written and parsed by hand so that
// the generator's own cost per request stays small next to the server's.
type conn struct {
	addr      string
	c         net.Conn
	br        *bufio.Reader
	req       []byte
	body      bytes.Buffer
	lastEpoch uint64
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// Sources of advice, as the answer's "source" field names them.
const (
	srcOther = iota
	srcPrefix
	srcPopulation
)

var (
	prefixSource     = []byte(`"source":"prefix"`)
	populationSource = []byte(`"source":"population"`)
)

// do sends one GET and classifies the answer against want (-1: unchecked);
// for a correct answer it also names the advice's source.
func (c *conn) do(path string, want int64) (kind, src int) {
	return c.answer(c.exchange(path, want))
}

// answer names the source of a correct answer's advice.
func (c *conn) answer(kind int) (int, int) {
	src := srcOther
	if kind == okReq {
		switch {
		case bytes.Contains(c.body.Bytes(), prefixSource):
			src = srcPrefix
		case bytes.Contains(c.body.Bytes(), populationSource):
			src = srcPopulation
		}
	}
	return kind, src
}

// exchange sends one GET and classifies the answer against want.
func (c *conn) exchange(path string, want int64) int {
	if !c.send(path) {
		return connErr
	}
	return c.recv(want)
}

// send writes GETs for paths in one write, dialing first if the
// connection is closed; it reports false if the connection failed.
func (c *conn) send(paths ...string) bool {
	if !c.dial() {
		return false
	}
	var err error
	if c.req, err = writeGETs(c.c, c.req, paths); err != nil {
		c.close()
		return false
	}
	return true
}

// dial connects a closed connection; it reports false if that failed.
func (c *conn) dial() bool {
	if c.c != nil {
		return true
	}
	nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
	if err != nil {
		return false
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 4096)
	return true
}

// writeGETs writes GETs for paths to nc in one write, building them in
// buf, and returns buf for reuse.
func writeGETs(nc net.Conn, buf []byte, paths []string) ([]byte, error) {
	if err := nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return buf, err
	}
	buf = buf[:0]
	for _, path := range paths {
		buf = append(append(append(buf, "GET "...), path...), " HTTP/1.1\r\nHost: advisord\r\n\r\n"...)
	}
	_, err := nc.Write(buf)
	return buf, err
}

// recv reads the answer to the oldest GET sent and not yet answered, and
// classifies it against want.
func (c *conn) recv(want int64) int {
	if c.c == nil {
		return connErr // an earlier answer on this connection failed
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return connErr
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return connErr
	}
	if resp.Close {
		c.close()
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return status503
	case resp.StatusCode >= 500:
		return status5xx
	case resp.StatusCode != http.StatusOK:
		return status4xx
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Advisor-Epoch"), 10, 64)
	if err != nil || epoch < c.lastEpoch {
		return epochBack
	}
	c.lastEpoch = epoch
	if want >= 0 {
		if got, ok := timeoutNS(c.body.Bytes()); !ok || got != want {
			return wrongBody
		}
	}
	return okReq
}

var timeoutKey = []byte(`"timeout_ns":`)

// timeoutNS extracts the timeout_ns field of a /timeout answer.
func timeoutNS(body []byte) (int64, bool) {
	i := bytes.Index(body, timeoutKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(timeoutKey):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// runPhase runs one phase from mix position first.
func runPhase(ctx context.Context, ph phase, conns []*conn, mix []query, first int, limit time.Duration) phaseResult {
	n := ph.Count
	rec := make([]record, n)
	var interval time.Duration
	if ph.Open {
		interval = time.Duration(float64(time.Second) / ph.Rate)
	}
	start := time.Now().Add(time.Millisecond)
	// cutoff is the offset from start at and after which no request is
	// due; it stays unset (0) until the signal ends an UntilSignal phase.
	var cutoff atomic.Int64
	if !ph.UntilSignal {
		cutoff.Store(math.MaxInt64)
	}
	stopWatch := make(chan struct{})
	if ph.UntilSignal {
		go func() {
			select {
			case <-ctx.Done():
				cutoff.Store(int64(time.Since(start)))
			case <-stopWatch:
			}
		}()
	}
	// waitDue sleeps until due, in short steps so a signal ends the wait,
	// and reports false if the cutoff passes first.
	waitDue := func(due time.Time) bool {
		for {
			if cut := cutoff.Load(); cut != 0 && int64(due.Sub(start)) >= cut {
				return false
			}
			wait := time.Until(due)
			if wait <= 0 {
				return true
			}
			sleep(min(wait, 50*time.Millisecond))
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			runtime.LockOSThread() // sleep's precision is a property of the thread
			defer runtime.UnlockOSThread()
			setTimerSlack()
			if !ph.Open {
				pipelined(c, max(ph.Depth, 1), n, &next, rec, mix, first, start)
				return
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				free := time.Now()
				due := start.Add(time.Duration(i) * interval)
				if !waitDue(due) {
					return
				}
				sent := time.Now()
				q := mix[(first+i)%len(mix)]
				kind, src := c.do(q.path, q.wantNS)
				rec[i] = record{
					sent: true,
					kind: kind,
					src:  src,
					due:  due.Sub(start),
					done: time.Since(start),
					lag:  sent.Sub(later(due, free)),
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopWatch)
	return tally(ph, rec, limit)
}

// pipelined runs one connection's share of a pipelined closed loop: it
// takes depth requests at a time from next and sends them in one write,
// and a second batch goes out before the first is answered, so the server
// finds requests waiting when it finishes a batch and its CPU time goes to
// requests rather than to going idle and waking between them. Each request
// is timed from its batch's write to its answer. Once the connection
// fails, every request still unanswered on it and every later batch it
// takes fails.
func pipelined(c *conn, depth, n int, next *atomic.Int64, rec []record, mix []query, first int, start time.Time) {
	type batch struct {
		i0, i1 int
		sent   time.Duration
		ok     bool
	}
	batches := make(chan batch, 1)
	ok := c.dial()
	nc := c.c
	go func() {
		defer close(batches)
		paths := make([]string, 0, depth)
		var buf []byte
		for {
			i0 := int(next.Add(int64(depth)) - int64(depth))
			if i0 >= n {
				return
			}
			b := batch{i0: i0, i1: min(i0+depth, n), sent: time.Since(start), ok: ok}
			if ok {
				paths = paths[:0]
				for i := b.i0; i < b.i1; i++ {
					paths = append(paths, mix[(first+i)%len(mix)].path)
				}
				var err error
				buf, err = writeGETs(nc, buf, paths)
				b.ok = err == nil
			}
			batches <- b
		}
	}()
	for b := range batches {
		for i := b.i0; i < b.i1; i++ {
			kind := connErr
			if b.ok {
				kind = c.recv(mix[(first+i)%len(mix)].wantNS)
			}
			kind, src := c.answer(kind)
			rec[i] = record{sent: true, kind: kind, src: src, due: b.sent, done: time.Since(start)}
		}
	}
}

// sleep blocks the calling thread for d with nanosleep. The runtime's own
// timers wake up to a millisecond late when the process is otherwise idle,
// which an open loop timed from each request's due time would report as
// server latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; callers re-check the time
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// setTimerSlack asks the kernel to wake the calling thread's sleeps within
// a microsecond rather than its default 50 µs slack.
func setTimerSlack() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: the default slack only costs precision
}

// record is one request as the generator saw it, times relative to the
// phase start.
type record struct {
	sent      bool
	kind, src int
	due, done time.Duration
	// lag is the generator's own lateness: from when the request was due
	// (or, if its connection was still busy then, from when the connection
	// came free) to when it was sent.
	lag time.Duration
}

// later returns the later of two times.
func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// tally summarizes a phase's per-request records. Latency runs from when
// a request was due to when its answer was read; failed requests are
// counted apart, having no latency.
func tally(ph phase, rec []record, limit time.Duration) phaseResult {
	r := phaseResult{Name: ph.Name, Rate: ph.Rate, Status: map[string]int64{}, Sources: map[string]int64{}}
	var lat, lags []float64
	var wlat, wlag [][]float64
	var wfailed []int
	var lastDue, lastDone time.Duration
	for _, x := range rec {
		if !x.sent {
			continue
		}
		r.Attempted++
		lastDue, lastDone = max(lastDue, x.due), max(lastDone, x.done)
		us := float64(x.done-x.due) / 1e3
		switch x.kind {
		case okReq:
			r.Status["2xx"]++
		case status4xx:
			r.Status["4xx"]++
		case status503:
			r.Status["503"]++
		case status5xx:
			r.Status["5xx"]++
		case connErr:
			r.ConnErr++
		case wrongBody:
			r.Status["2xx"]++
			r.Wrong++
		case epochBack:
			r.Status["2xx"]++
			r.EpochBack++
		}
		switch x.src {
		case srcPrefix:
			r.Sources["prefix"]++
		case srcPopulation:
			r.Sources["population"]++
		}
		failed := x.kind != okReq
		if failed {
			r.Failed++
		} else {
			lat = append(lat, us)
		}
		lags = append(lags, float64(x.lag)/1e3)
		if ph.Open {
			w := int(x.due / latencyWindow)
			for len(wlat) <= w {
				wlat, wlag, wfailed = append(wlat, nil), append(wlag, nil), append(wfailed, 0)
			}
			if failed {
				wfailed[w]++
			} else {
				wlat[w] = append(wlat[w], us)
			}
			wlag[w] = append(wlag[w], float64(x.lag)/1e3)
		}
	}
	r.Lat = summarize(lat, int(r.Failed))
	for i, w := range wlat {
		if len(w)+wfailed[i] > 0 {
			r.Windows = append(r.Windows, window{Lat: summarize(w, wfailed[i]), LagP99us: percentile(sortedCopy(wlag[i]), 99)})
		}
	}
	if len(lags) > 0 {
		r.LagP99us = percentile(sortedCopy(lags), 99)
	}
	r.WallS = lastDone.Seconds()
	if ph.Open && r.Attempted > 0 {
		r.DrainS = (lastDone - lastDue).Seconds()
		r.Backlog = lastDone-lastDue > limit
	}
	return r
}
