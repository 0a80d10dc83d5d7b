package advisor

import (
	"io"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

// Store is the advisor's ingest side: per-/24 latency sketches plus the
// core.StreamMatcher-style bounded attribution state that recovers delayed
// responses — the paper's central trick, without which advice would miss
// exactly the surprisingly-high-delay tail it exists to serve.
//
// Everything the store knows about one /24 lives in a single prefixState —
// its sketch, its freshness stamp and its open-probe rings — so each record
// costs one map lookup, keyed by prefix: the same "Less is More" aggregation
// the advice itself makes (PAPERS.md). Memory is one fixed-size Sketch per
// sampled prefix plus 6 KiB of rings (256 × openPair) per prefix with open
// probes; each address holds at most its last two probes, the only ones a
// future unmatched response can still be attributed to.
//
// A Store is single-writer: the sharded engine gives each shard its own
// Store and merges afterwards (Merge), exactly as it does per-shard
// obs.Registries. Publishing advice from a store while it keeps ingesting
// is the Advisor's job — Publish reads the sketches into an immutable
// snapshot, so the store itself needs no locks.
type Store struct {
	prefixes map[ipaddr.Prefix24]*prefixState
	sampled  int // prefixes holding a sketch
	records  uint64
	matched  uint64
	delayed  uint64

	// clock stamps per-prefix freshness; nil means the wall clock. Tests
	// and the checkpoint chaos suite inject a deterministic clock.
	clock func() int64

	// Observability (nil-safe no-ops unless SetObserver installs them).
	obsRecords  *obs.Counter
	obsSamples  *obs.Counter
	obsPrefixes *obs.Gauge
}

// prefixState is the store's whole state for one /24.
type prefixState struct {
	sketch  *Sketch        // nil until the prefix's first sample
	updated int64          // wall time (unix ns) of the newest sample; 0 = unknown
	open    *[256]openPair // open-probe rings by last octet; nil until the first probe
}

// openPair is one address's open-probe ring: the last two probe send times,
// mirroring core.StreamMatcher's eviction discipline. n == 0 is an address
// with no open probe.
type openPair struct {
	send     [2]int64 // send times, ns; [n-1] newest
	resolved [2]bool  // matched or already credited with a delayed response
	n        int8
}

// NewStore creates an empty ingest store.
func NewStore() *Store {
	return &Store{prefixes: make(map[ipaddr.Prefix24]*prefixState)}
}

// SetClock installs the clock that stamps per-prefix freshness (nil restores
// the wall clock). Freshness drives the staleness TTL: a snapshot built from
// this store degrades lookups for prefixes whose newest sample is older than
// the advisor's TTL to the population fallback rather than serving
// confidently-wrong stale advice.
func (s *Store) SetClock(fn func() int64) { s.clock = fn }

// now returns the store's current freshness stamp.
func (s *Store) now() int64 {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now().UnixNano()
}

// SetObserver registers the store's ingest metrics on reg. All three are
// deterministic-class: record streams arrive in dataset emission order,
// identical across sequential and sharded runs.
func (s *Store) SetObserver(reg *obs.Registry) {
	s.obsRecords = reg.Counter("advisor.ingest.records")
	s.obsSamples = reg.Counter("advisor.ingest.samples")
	s.obsPrefixes = reg.Gauge("advisor.prefixes_hwm")
}

// Records returns how many records have been consumed.
func (s *Store) Records() uint64 { return s.records }

// Samples returns how many latency samples reached the sketches (matched
// plus recovered-delayed).
func (s *Store) Samples() uint64 { return s.matched + s.delayed }

// Prefixes returns how many /24 prefixes hold a sketch.
func (s *Store) Prefixes() int { return s.sampled }

// state returns (creating if needed) the prefix's state.
func (s *Store) state(p ipaddr.Prefix24) *prefixState {
	ps := s.prefixes[p]
	if ps == nil {
		ps = &prefixState{}
		s.prefixes[p] = ps
	}
	return ps
}

// sketchOf returns (creating if needed) the prefix's sketch.
func (s *Store) sketchOf(ps *prefixState) *Sketch {
	if ps.sketch == nil {
		ps.sketch = NewSketch()
		s.sampled++
		s.obsPrefixes.Observe(int64(s.sampled))
	}
	return ps.sketch
}

// sample folds one latency sample into the prefix's sketch and stamps the
// prefix as freshly sampled.
func (s *Store) sample(ps *prefixState, d time.Duration) {
	s.sketchOf(ps).Add(d)
	ps.updated = s.now()
	s.obsSamples.Inc()
}

// ring returns the open-probe ring of the address with the given last
// octet, allocating the prefix's rings on first use.
func (ps *prefixState) ring(octet byte) *openPair {
	if ps.open == nil {
		ps.open = new([256]openPair)
	}
	return &ps.open[octet]
}

// Add folds one directly measured latency sample for addr into its prefix
// sketch — the entry point for the live rtt plane, where the RTT is known
// without record-stream attribution.
func (s *Store) Add(addr ipaddr.Addr, rtt time.Duration) {
	s.sample(s.state(addr.Prefix()), rtt)
	s.matched++
}

// Write implements survey.RecordWriter, so a survey (sequential or sharded)
// can probe straight into the advisor with no intermediate dataset.
func (s *Store) Write(rec survey.Record) error {
	s.Observe(rec)
	return nil
}

// Observe folds one survey record into the store. Matched records
// contribute their RTT directly; timeout records open probes; unmatched
// responses are attributed to the newest open probe sent strictly before
// their arrival — core.StreamMatcher's recovery rule — yielding the delayed
// samples that populate the advice tail.
func (s *Store) Observe(rec survey.Record) {
	s.records++
	s.obsRecords.Inc()
	switch rec.Type {
	case survey.RecMatched:
		ps := s.state(rec.Addr.Prefix())
		ps.ring(rec.Addr.LastOctet()).push(int64(rec.When), true)
		s.sample(ps, rec.RTT)
		s.matched++
	case survey.RecTimeout:
		s.state(rec.Addr.Prefix()).ring(rec.Addr.LastOctet()).push(int64(rec.When), false)
	case survey.RecUnmatched:
		ps := s.prefixes[rec.Addr.Prefix()]
		if ps == nil || ps.open == nil {
			return
		}
		st := &ps.open[rec.Addr.LastOctet()]
		for i := int(st.n) - 1; i >= 0; i-- {
			if st.send[i] >= int64(rec.When) {
				continue
			}
			if !st.resolved[i] {
				st.resolved[i] = true
				s.sample(ps, rec.When-time.Duration(st.send[i]))
				s.delayed++
			}
			break
		}
	case survey.RecError:
		// ICMP errors carry no latency; the analysis pipeline discards such
		// probes and so does the advisor.
	}
}

// push opens a probe on the pair, evicting the oldest beyond two.
func (p *openPair) push(send int64, matched bool) {
	if p.n == 2 {
		p.send[0], p.resolved[0] = p.send[1], p.resolved[1]
		p.n = 1
	}
	p.send[p.n] = send
	p.resolved[p.n] = matched
	p.n++
}

// Consume drains a RecordSource into the store, stopping at io.EOF or the
// first error.
func (s *Store) Consume(src survey.RecordSource) error {
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		s.Observe(rec)
	}
}

// Merge folds other's state into s: sketches add bucket-wise (commutative
// and associative, the obs.Registry.Merge discipline), freshness stamps take
// the per-prefix maximum, counters add, and open attribution state unions.
// Shards partition the address space, so open-state keys never collide in
// sharded use; on a collision the entry with more recent probes wins,
// keeping the merge deterministic for any fixed merge order. other is left
// unchanged: s copies what it takes.
//
// Counter/metric agreement: the folded record and sample counts are also
// mirrored into s's obs counters, so a store observed on a registry keeps
// advisor.ingest.records == Records() and advisor.ingest.samples ==
// Samples() across any sequence of Observe/Add/Merge — the invariant
// TestStoreMergeCounterAgreement pins. The stores being merged *in* must
// therefore be unobserved, or observed on registries that are never merged
// with s's — otherwise their ingest totals would count twice. That is the
// sharded discipline anyway: shard stores are plain, the accumulator owns
// the metrics.
func (s *Store) Merge(other *Store) {
	for p, o := range other.prefixes {
		ps := s.state(p)
		if o.sketch != nil {
			s.sketchOf(ps).Merge(o.sketch)
		}
		if o.updated > ps.updated {
			ps.updated = o.updated
		}
		if o.open == nil {
			continue
		}
		for i := range o.open {
			st := &o.open[i]
			if st.n == 0 {
				continue
			}
			if cur := ps.ring(byte(i)); cur.n == 0 || st.newest() > cur.newest() {
				*cur = *st
			}
		}
	}
	s.records += other.records
	s.matched += other.matched
	s.delayed += other.delayed
	s.obsRecords.Add(other.records)
	s.obsSamples.Add(other.matched + other.delayed)
	s.obsPrefixes.Observe(int64(s.sampled))
}

// newest returns the newest open probe send time. The pair must hold one.
func (p *openPair) newest() int64 { return p.send[p.n-1] }

// sampled reports whether the prefix holds advice: a non-empty sketch.
func (ps *prefixState) sampled() bool { return ps.sketch != nil && ps.sketch.n > 0 }
