package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
	"timeouts/internal/wire"
)

// sampleEvery is the 1-in-N sampling period of the hot boundaries (Fabric
// Respond, sink Write, RecordSource Read, Store Observe). Timing every call
// would cost two clock reads per event and distort what it measures.
const sampleEvery = 64

// span is one timed call into a layer, recorded by the benchmark around the
// program's public functions. Times are nanoseconds since the tracer's
// start; Parent is 0 for a top-level stage.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// now returns nanoseconds since the tracer started (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: t.now(), End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// add records an already-timed span.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
	return id
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, the summed duration minus the part of
// each span's interval its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// shardClock is one shard's view of the Fabric boundary: Respond calls,
// the sampled time inside Respond, the wire codec timed on sampled probe
// packets, and the shard's busy span (first Fabric build to last sampled
// Respond). Each shard owns its own, so the hot path takes no lock.
type shardClock struct {
	start, last        time.Time
	calls              uint64
	respondNS, samples int64
	decodeNS, encodeNS int64
	codecSamples       int64
}

// fabricTap builds traced fabrics: each shard's netmodel.Model is wrapped
// so that 1 in sampleEvery Respond calls is timed and its probe packet
// decoded and a reply encoded through the wire codec.
type fabricTap struct {
	mu     sync.Mutex
	shards []*shardClock
}

// wrap returns a fabric factory that wraps build's fabrics.
func (ft *fabricTap) wrap(build func(int) simnet.Fabric) func(int) simnet.Fabric {
	return func(k int) simnet.Fabric {
		c := &shardClock{start: time.Now()}
		ft.mu.Lock()
		ft.shards = append(ft.shards, c)
		ft.mu.Unlock()
		return &tracedFabric{inner: build(k), c: c}
	}
}

// totals sums the shard clocks; busy holds each shard's busy span.
func (ft *fabricTap) totals() (sum shardClock, busy []time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for _, c := range ft.shards {
		sum.calls += c.calls
		sum.respondNS += c.respondNS
		sum.samples += c.samples
		sum.decodeNS += c.decodeNS
		sum.encodeNS += c.encodeNS
		sum.codecSamples += c.codecSamples
		if !c.last.IsZero() {
			busy = append(busy, c.last.Sub(c.start))
		}
	}
	return sum, busy
}

// tracedFabric is the sampling wrapper around one shard's fabric.
type tracedFabric struct {
	inner simnet.Fabric
	c     *shardClock
	dec   wire.Decoder
	reply wire.ICMPEcho
	pkt   []byte
	out   []byte
}

// Respond implements simnet.Fabric.
func (f *tracedFabric) Respond(from ipaddr.Addr, at simnet.Time, pkt []byte) []simnet.Delivery {
	f.c.calls++
	if f.c.calls%sampleEvery != 0 {
		return f.inner.Respond(from, at, pkt)
	}
	f.pkt = append(f.pkt[:0], pkt...) // the codec sample must not touch pkt
	t0 := time.Now()
	d := f.inner.Respond(from, at, pkt)
	t1 := time.Now()
	f.c.respondNS += int64(t1.Sub(t0))
	f.c.samples++
	f.c.last = t1
	f.sampleCodec()
	return d
}

// sampleCodec times one decode of the sampled probe and one encode of its
// echo reply.
func (f *tracedFabric) sampleCodec() {
	t0 := time.Now()
	p, err := f.dec.Decode(f.pkt)
	t1 := time.Now()
	if err != nil || p.Echo == nil {
		return
	}
	p.Echo.ReplyInto(&f.reply)
	t2 := time.Now()
	f.out = wire.AppendEcho(f.out[:0], p.IP.Dst, p.IP.Src, &f.reply)
	t3 := time.Now()
	f.c.decodeNS += int64(t1.Sub(t0))
	f.c.encodeNS += int64(t3.Sub(t2))
	f.c.codecSamples++
}

// sinkClock times a merge sink: when the first item arrived, how many
// arrived, and the sampled time spent inside the sink.
type sinkClock struct {
	first             time.Time
	n                 uint64
	sampledNS, sample int64
}

// estimate returns the sink's estimated total time.
func (s *sinkClock) estimate() int64 {
	if s.sample == 0 {
		return 0
	}
	return s.sampledNS * int64(s.n) / s.sample
}

// enter counts one sink call and reports whether to time it (1 in
// sampleEvery); a timed call ends with timed.
func (s *sinkClock) enter() bool {
	if s.n == 0 {
		s.first = time.Now()
	}
	s.n++
	return s.n%sampleEvery == 0
}

// timed accounts one sampled sink call that started at t0.
func (s *sinkClock) timed(t0 time.Time) {
	s.sampledNS += int64(time.Since(t0))
	s.sample++
}

// timedRecords is a survey.RecordWriter collecting records in memory under
// a sinkClock.
type timedRecords struct {
	mem   survey.MemWriter
	clock sinkClock
}

// Write implements survey.RecordWriter.
func (w *timedRecords) Write(r survey.Record) error {
	if !w.clock.enter() {
		return w.mem.Write(r)
	}
	t0 := time.Now()
	err := w.mem.Write(r)
	w.clock.timed(t0)
	return err
}
