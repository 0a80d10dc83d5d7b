package advisor

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
	"timeouts/internal/xrand"
)

// benchAdvisor builds an advisor with a published snapshot over nPrefixes
// /24s, sized like a real survey ingest (thousands of prefixes).
func benchAdvisor(nPrefixes int) *Advisor {
	st := NewStore()
	for i := 0; i < nPrefixes; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		for j := 0; j < 8; j++ {
			st.Add(addr, time.Duration(1+(i+j)%500)*time.Millisecond)
		}
	}
	adv := New()
	adv.Publish(st)
	return adv
}

// BenchmarkAdvisorLookup measures the serving hot path — atomic snapshot
// load, level resolution, prefix binary search, flat-array read — mixing
// prefix hits across ranks with population fallbacks. The gate
// (make bench-compare) holds it to the checked-in baseline; the allocation
// pin is TestLookupZeroAlloc, and concurrent-reader correctness is
// TestAdvisorEpochConsistencyUnderSwap.
func BenchmarkAdvisorLookup(b *testing.B) {
	adv := benchAdvisor(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i&4095)<<8)
		if i&7 == 7 {
			addr = ipaddr.Addr(0xc0a80001 + uint32(i))
		}
		if _, err := adv.Lookup(addr, 95, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisorLookupTTL measures the same hot path with a staleness TTL
// armed, mixing fresh hits, TTL-degraded prefixes, and population fallbacks.
// The TTL check is one clock call against immutable per-prefix stamps, so
// this must stay 0 allocs/op (pinned by TestLookupTTLZeroAlloc) and within
// noise of the TTL-free BenchmarkAdvisorLookup.
func BenchmarkAdvisorLookupTTL(b *testing.B) {
	var now int64 = int64(time.Hour)
	clock := func() int64 { return now }
	st := NewStore()
	st.SetClock(clock)
	// First half stamped at 1h (stale under the TTL below), second half at 2h.
	for i := 0; i < 4096; i++ {
		if i == 2048 {
			now = int64(2 * time.Hour)
		}
		addr := ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		for j := 0; j < 8; j++ {
			st.Add(addr, time.Duration(1+(i+j)%500)*time.Millisecond)
		}
	}
	adv := New()
	adv.SetClock(clock)
	adv.SetTTL(30 * time.Minute)
	adv.Publish(st)
	now = int64(2*time.Hour + 10*time.Minute)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i&4095)<<8)
		if i&7 == 7 {
			addr = ipaddr.Addr(0xc0a80001 + uint32(i))
		}
		if _, err := adv.Lookup(addr, 95, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateShed measures the overload rejection path: with the admission
// semaphore full, every request must be turned away in a few hundred
// nanoseconds — shedding that is slower than serving defeats its purpose.
func BenchmarkGateShed(b *testing.B) {
	gate := NewGate(1, time.Second)
	gate.sem <- struct{}{} // saturate admission so every request sheds
	h := gate.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.Fatal("admitted a request past a full gate")
	}))
	req := httptest.NewRequest(http.MethodGet, "/timeout", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &shedSinkWriter{}
		h.ServeHTTP(w, req)
		if w.code != http.StatusServiceUnavailable {
			b.Fatalf("code = %d, want 503", w.code)
		}
	}
}

// shedSinkWriter is a minimal ResponseWriter so the benchmark measures the
// gate, not httptest.ResponseRecorder's buffer management.
type shedSinkWriter struct {
	h    http.Header
	code int
}

func (w *shedSinkWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *shedSinkWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *shedSinkWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkServeInstrumented measures the serve-path instrumentation
// middleware riding a trivial handler: pooled status capture, two clock
// reads, one histogram add. The overhead must stay in the tens of
// nanoseconds and 0 allocs/op (pinned by TestServeInstrumentedZeroAlloc) —
// telemetry that taxes the hot path becomes the latency it measures.
func BenchmarkServeInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	m := NewServeMetrics(reg)
	h := m.Instrument(routeTimeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodGet, "/timeout", nil)
	w := &shedSinkWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		h.ServeHTTP(w, req)
	}
	if got := reg.DiagHistogram("advisor.http.latency.timeout.2xx").Count(); got != uint64(b.N) {
		b.Fatalf("recorded %d samples, want %d", got, b.N)
	}
}

// BenchmarkPromEncode measures one full /metrics render over a registry
// sized like a live advisord: the store/advisor/gate counter families plus
// populated serve histograms. Scrapes run every few seconds for the life of
// the process, so the encode must stay comfortably sub-millisecond.
func BenchmarkPromEncode(b *testing.B) {
	reg := obs.NewRegistry()
	adv := benchAdvisor(4096)
	adv.SetObserver(reg)
	st := NewStore()
	st.SetObserver(reg)
	m := NewServeMetrics(reg)
	for r := routeKind(0); r < numRoutes; r++ {
		for c := 0; c < numClasses; c++ {
			m.hists[r][c].ObserveN(time.Duration(c+1)*time.Millisecond, 1000)
		}
	}
	for i := 0; i < 1000; i++ {
		adv.Lookup(ipaddr.Addr(0x0a000001+uint32(i)<<8), 95, 95)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WritePromText(io.Discard, reg, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStream is a recorded ingest stream over 512 fully probed /24s: two
// sweeps of every address, each record's type drawn with the shares of the
// benchmark's vantage-c survey dataset (21% matched, 76% timeout, 1.5%
// unmatched, 1.4% ICMP error). Unmatched records arrive after the previous
// sweep's probe of the same address, so they recover delayed samples.
func benchStream() []survey.Record {
	const addrs = 512 * 256
	recs := make([]survey.Record, 0, 2*addrs)
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < addrs; i++ {
			rec := survey.Record{
				Type: survey.RecTimeout,
				Addr: ipaddr.Addr(0x0a000000 + uint32(i)),
				When: time.Duration(sweep*addrs+i) * time.Millisecond,
			}
			switch h := xrand.Hash(uint64(sweep), uint64(i)) % 1000; {
			case h < 210:
				rec.Type = survey.RecMatched
				rec.RTT = time.Duration(1+h) * time.Millisecond
			case h < 225:
				rec.Type = survey.RecUnmatched
			case h < 239:
				rec.Type = survey.RecError
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// streamSource replays benchStream for n records, shifting each replay's
// times past the previous one's so attribution keeps seeing fresh probes.
type streamSource struct {
	recs []survey.Record
	n, i int
	span time.Duration
}

func newStreamSource(recs []survey.Record, n int) *streamSource {
	return &streamSource{recs: recs, n: n, span: recs[len(recs)-1].When + time.Millisecond}
}

func (s *streamSource) Read() (survey.Record, error) {
	if s.i == s.n {
		return survey.Record{}, io.EOF
	}
	rec := s.recs[s.i%len(s.recs)]
	rec.When += time.Duration(s.i/len(s.recs)) * s.span
	s.i++
	return rec, nil
}

// warmStore returns a store that has ingested the stream once, so every
// prefix's sketch and rings exist and the timer sees no map growth.
func warmStore(b *testing.B, recs []survey.Record) *Store {
	st := NewStore()
	if err := st.Consume(newStreamSource(recs, len(recs))); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreObserve measures the steady-state ingest cost per record
// on the realistic mixed stream: one state lookup, open-probe bookkeeping,
// and a sketch add for matched and recovered-delayed records.
func BenchmarkStoreObserve(b *testing.B) {
	recs := benchStream()
	st := warmStore(b, recs)
	src := newStreamSource(recs, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, _ := src.Read()
		st.Observe(rec)
	}
}

// BenchmarkRunIngest measures the supervised ingest loop per record — the
// batched reader/consumer hand-off plus Observe — on the same stream from
// an in-memory source, with the default queue and publish cadence. Emptied
// batches are recycled, so the steady state reports 0 allocs/op (one op is
// one record; TestRunIngestSteadyStateAllocs pins it without a publisher).
func BenchmarkRunIngest(b *testing.B) {
	recs := benchStream()
	st := warmStore(b, recs)
	adv := New()
	b.ReportAllocs()
	b.ResetTimer()
	stats, err := RunIngest(context.Background(), IngestConfig{
		Open: func() (survey.RecordSource, error) { return newStreamSource(recs, b.N), nil },
	}, st, adv, nil)
	if err != nil || stats.Records != uint64(b.N) {
		b.Fatalf("RunIngest = %d records, %v; want %d", stats.Records, err, b.N)
	}
}

// BenchmarkSnapshotPublish measures one advice publish over 512 sampled
// prefixes: the sorted prefix index, each prefix's level row, and the
// population matrix.
func BenchmarkSnapshotPublish(b *testing.B) {
	st := warmStore(b, benchStream())
	if st.Prefixes() != 512 {
		b.Fatalf("%d prefixes, want 512", st.Prefixes())
	}
	adv := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Publish(st)
	}
}
