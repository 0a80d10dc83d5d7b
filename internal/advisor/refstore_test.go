package advisor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
	"timeouts/internal/xrand"
)

// refStore is the advisor's original ingest store, kept as the test oracle
// for Store: three maps — sketches and freshness stamps by prefix, open-probe
// rings by address — with the attribution, merge, checkpoint encoding and
// snapshot build written the straightforward way, each quantile level its
// own scan of the buckets. Store must match it byte for byte in checkpoint
// and snapshot output on every record stream (FuzzStoreObserve).
type refStore struct {
	sketches map[ipaddr.Prefix24]*Sketch
	updated  map[ipaddr.Prefix24]int64
	open     map[ipaddr.Addr]openPair
	records  uint64
	matched  uint64
	delayed  uint64
	clock    func() int64
}

func newRefStore(clock func() int64) *refStore {
	return &refStore{
		sketches: make(map[ipaddr.Prefix24]*Sketch),
		updated:  make(map[ipaddr.Prefix24]int64),
		open:     make(map[ipaddr.Addr]openPair),
		clock:    clock,
	}
}

func (s *refStore) sketch(p ipaddr.Prefix24) *Sketch {
	sk := s.sketches[p]
	if sk == nil {
		sk = NewSketch()
		s.sketches[p] = sk
	}
	return sk
}

func (s *refStore) Observe(rec survey.Record) {
	s.records++
	switch rec.Type {
	case survey.RecMatched:
		st := s.open[rec.Addr]
		st.push(int64(rec.When), true)
		s.open[rec.Addr] = st
		p := rec.Addr.Prefix()
		s.sketch(p).Add(rec.RTT)
		s.updated[p] = s.clock()
		s.matched++
	case survey.RecTimeout:
		st := s.open[rec.Addr]
		st.push(int64(rec.When), false)
		s.open[rec.Addr] = st
	case survey.RecUnmatched:
		st, ok := s.open[rec.Addr]
		if !ok {
			return
		}
		for i := int(st.n) - 1; i >= 0; i-- {
			if st.send[i] >= int64(rec.When) {
				continue
			}
			if !st.resolved[i] {
				st.resolved[i] = true
				s.open[rec.Addr] = st
				p := rec.Addr.Prefix()
				s.sketch(p).Add(rec.When - time.Duration(st.send[i]))
				s.updated[p] = s.clock()
				s.delayed++
			}
			break
		}
	}
}

func (s *refStore) Merge(other *refStore) {
	for p, sk := range other.sketches {
		s.sketch(p).Merge(sk)
	}
	for p, t := range other.updated {
		if t > s.updated[p] {
			s.updated[p] = t
		}
	}
	for a, st := range other.open {
		if cur, ok := s.open[a]; !ok || st.newest() > cur.newest() {
			s.open[a] = st
		}
	}
	s.records += other.records
	s.matched += other.matched
	s.delayed += other.delayed
}

// checkpoint is the TADVCKP1 encoding of the reference store.
func (s *refStore) checkpoint(epoch uint64) []byte {
	out := []byte(ckptMagic)
	put := func(v uint64) { out = binary.AppendUvarint(out, v) }
	for _, v := range []uint64{epoch, s.records, s.matched, s.delayed} {
		put(v)
	}
	var prefixes []ipaddr.Prefix24
	for p, sk := range s.sketches {
		if sk.n > 0 {
			prefixes = append(prefixes, p)
		}
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	put(uint64(len(prefixes)))
	for _, p := range prefixes {
		sk := s.sketches[p]
		put(uint64(p))
		put(uint64(s.updated[p]))
		nnz := 0
		for _, c := range sk.counts {
			if c != 0 {
				nnz++
			}
		}
		put(uint64(nnz))
		for i, c := range sk.counts {
			if c != 0 {
				put(uint64(i))
				put(c)
			}
		}
	}
	var addrs []ipaddr.Addr
	for a, pair := range s.open {
		if pair.n > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	put(uint64(len(addrs)))
	for _, a := range addrs {
		pair := s.open[a]
		put(uint64(a))
		put(uint64(pair.n))
		for i := 0; i < int(pair.n); i++ {
			put(uint64(pair.send[i]))
			if pair.resolved[i] {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, ckptCRC))
}

// refQuantile is the original nearest-rank bucket scan for one level.
func refQuantile(sk *Sketch, p float64) time.Duration {
	target := uint64(p / 100 * float64(sk.n))
	if float64(target) < p/100*float64(sk.n) || target == 0 {
		target++
	}
	if target > sk.n {
		target = sk.n
	}
	var cum uint64
	for i, c := range sk.counts {
		cum += c
		if cum >= target {
			if i == len(bucketBounds) {
				return maxAdvice
			}
			return bucketBounds[i]
		}
	}
	return maxAdvice
}

// snapshotJSON is the WriteJSON bytes of the reference store's snapshot,
// built with one bucket scan per level.
func (s *refStore) snapshotJSON(t *testing.T, epoch uint64) []byte {
	t.Helper()
	snap := &Snapshot{epoch: epoch}
	for p, sk := range s.sketches {
		if sk.n > 0 {
			snap.prefixes = append(snap.prefixes, p)
		}
	}
	sort.Slice(snap.prefixes, func(i, j int) bool { return snap.prefixes[i] < snap.prefixes[j] })
	vecs := make([]stats.Quantiles, len(snap.prefixes))
	for r, p := range snap.prefixes {
		sk := s.sketches[p]
		for _, lv := range stats.StandardPercentiles {
			snap.quants = append(snap.quants, refQuantile(sk, lv))
		}
		vecs[r] = stats.Quantiles{
			P1: refQuantile(sk, 1), P50: refQuantile(sk, 50), P80: refQuantile(sk, 80),
			P90: refQuantile(sk, 90), P95: refQuantile(sk, 95), P98: refQuantile(sk, 98),
			P99: refQuantile(sk, 99),
		}
		snap.samples = append(snap.samples, sk.n)
		snap.updated = append(snap.updated, s.updated[p])
		snap.total += sk.n
	}
	snap.matrix = stats.BuildTimeoutMatrix(vecs)
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzStream decodes a fuzz input into a record stream. Each 4-byte chunk
// is one record, or one sweep of records over all 256 addresses of a /24,
// chosen to hit the attribution rule's edges: a handful of /24s, some swept
// whole (full blocks) and some holding a few addresses (sparse), send times
// on a coarse grid so unmatched arrivals often equal a send time exactly
// (the strict send < arrival boundary), repeated unmatched responses to one
// probe, and strays to addresses never probed.
func fuzzStream(data []byte) []survey.Record {
	var recs []survey.Record
	when := time.Duration(0)
	for i := 0; i+4 <= len(data); i += 4 {
		kind, pfx, host, step := data[i], data[i+1], data[i+2], data[i+3]
		p := ipaddr.Prefix24(0x0a0000 + uint32(pfx%6))
		if pfx%6 >= 3 {
			host %= 4 // sparse /24s: a few addresses each
		}
		when += time.Duration(step%4) * time.Second
		rec := survey.Record{Addr: p.Addr(host), When: when}
		switch kind % 16 {
		case 0, 1, 2:
			rec.Type = survey.RecMatched
			rec.RTT = time.Duration(1+int(step)*37) * time.Millisecond
		case 3, 4, 5:
			rec.Type = survey.RecTimeout
		case 6, 7, 8, 9:
			rec.Type = survey.RecUnmatched
			rec.When -= time.Duration(kind/16%3) * time.Second // at or before the newest send
		case 10:
			rec.Type = survey.RecError
		default:
			// Sweep the whole /24: every address probed, matched or lost.
			for h := 0; h < 256; h++ {
				rec := survey.Record{Type: survey.RecTimeout, Addr: p.Addr(byte(h)), When: when}
				if (h+int(kind))%3 == 0 {
					rec.Type = survey.RecMatched
					rec.RTT = time.Duration(1+(h*int(step))%900) * time.Millisecond
				}
				recs = append(recs, rec)
			}
			continue
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzStoreObserve holds Store to the reference three-map store: the same
// record stream, ingested whole or split into shards merged in a
// fuzz-chosen order, must give byte-identical checkpoints and snapshots.
// Shards split by address, as the sharded engine does, or — when the shards
// byte's high bit is set — by record, so one address's rings land in
// several shards and Merge's newest-probe-wins collision rule runs too.
func FuzzStoreObserve(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(1))
	f.Add([]byte{0, 0, 1, 1, 2, 0, 1, 1, 4, 0, 1, 0, 4, 0, 1, 1, 5, 0, 1, 2}, uint64(1), uint8(2))
	full := []byte{11, 0, 0, 1, 6, 0, 5, 1, 12, 1, 0, 2, 7, 0, 5, 0, 6, 0, 5, 1, 11, 0, 0, 3, 22, 0, 5, 0}
	f.Add(full, uint64(7), uint8(4))
	f.Add(full, uint64(5), uint8(0x83))
	sparse := []byte{3, 3, 0, 1, 3, 3, 1, 0, 6, 3, 1, 0, 6, 3, 0, 1, 22, 3, 0, 0, 6, 4, 2, 1, 0, 5, 3, 3, 8, 5, 3, 1, 10, 4, 1, 0}
	f.Add(sparse, uint64(3), uint8(3))

	f.Fuzz(checkStoreAgainstRef)
}

// checkStoreAgainstRef is FuzzStoreObserve's body.
func checkStoreAgainstRef(t *testing.T, data []byte, order uint64, shards uint8) {
	recs := fuzzStream(data)
	n := int(shards%4) + 1

	// Each side gets its own counter clock, ticked once per sample in
	// both stores, and a per-shard clock base so merged stamps differ.
	refs := make([]*refStore, n)
	sts := make([]*Store, n)
	for i := range sts {
		base := int64(i) << 32
		var rt, st int64
		refs[i] = newRefStore(func() int64 { rt++; return base + rt })
		sts[i] = NewStore()
		sts[i].SetClock(func() int64 { st++; return base + st })
	}
	for k, r := range recs {
		key := uint64(r.Addr)
		if shards&0x80 != 0 {
			key = uint64(k)
		}
		i := xrand.HashIntn(n, order, key)
		refs[i].Observe(r)
		sts[i].Observe(r)
	}
	ref, st := refs[0], sts[0]
	if n > 1 {
		ref, st = newRefStore(nil), NewStore()
		for _, k := range mergeOrder(order, n) {
			ref.Merge(refs[k])
			st.Merge(sts[k])
		}
	}

	var ckpt bytes.Buffer
	if err := EncodeCheckpoint(&ckpt, st, order); err != nil {
		t.Fatal(err)
	}
	if want := ref.checkpoint(order); !bytes.Equal(ckpt.Bytes(), want) {
		t.Fatalf("checkpoint differs from the reference store's (%d records, %d shards)", len(recs), n)
	}
	var snap bytes.Buffer
	if err := st.Snapshot(order).WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if want := ref.snapshotJSON(t, order); !bytes.Equal(snap.Bytes(), want) {
		t.Fatalf("snapshot differs from the reference store's:\ngot  %s\nwant %s", snap.Bytes(), want)
	}
	if st.Prefixes() != len(ref.sketches) || st.Samples() != ref.matched+ref.delayed {
		t.Fatalf("Prefixes/Samples = %d/%d, reference %d/%d",
			st.Prefixes(), st.Samples(), len(ref.sketches), ref.matched+ref.delayed)
	}
}

// mergeOrder is a seeded permutation of 0..n-1.
func mergeOrder(seed uint64, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := xrand.HashIntn(i+1, seed, uint64(i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}
