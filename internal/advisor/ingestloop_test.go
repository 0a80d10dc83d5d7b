package advisor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// ingestRecs builds n unique matched records.
func ingestRecs(n int) []survey.Record {
	recs := make([]survey.Record, n)
	for i := range recs {
		recs[i] = survey.Record{
			Type: survey.RecMatched,
			Addr: ipaddr.Addr(0x0a000001 + uint32(i%64)<<8),
			When: time.Duration(i+1) * time.Second,
			RTT:  time.Duration(1+i%500) * time.Millisecond,
		}
	}
	return recs
}

func TestRunIngestRetriesTransientOpenErrors(t *testing.T) {
	recs := ingestRecs(100)
	var opens atomic.Int64
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			if opens.Add(1) <= 3 {
				return nil, errors.New("feed not up yet")
			}
			return survey.NewSliceSource(recs), nil
		},
		Backoff:    time.Millisecond,
		BackoffMax: 4 * time.Millisecond,
	}
	st := NewStore()
	adv := New()
	stats, err := RunIngest(context.Background(), cfg, st, adv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 100 || st.Records() != 100 {
		t.Errorf("Records = %d (store %d), want 100", stats.Records, st.Records())
	}
	if stats.SourceErrors != 3 || stats.Reopens != 3 {
		t.Errorf("SourceErrors = %d, Reopens = %d; want 3 and 3", stats.SourceErrors, stats.Reopens)
	}
	if stats.Publishes == 0 || adv.Current() == nil {
		t.Error("no advice published")
	}
	if adv.Current().Samples() != 100 {
		t.Errorf("published samples = %d, want 100", adv.Current().Samples())
	}
}

// errAfterSource yields n records then fails mid-stream, exercising the
// reopen-on-source-error path (as a feed dying mid-read would).
type errAfterSource struct {
	recs []survey.Record
	i    int
}

func (s *errAfterSource) Read() (survey.Record, error) {
	if s.i >= len(s.recs) {
		return survey.Record{}, errors.New("connection reset")
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

func TestRunIngestReopensAfterSourceError(t *testing.T) {
	recs := ingestRecs(60)
	var opens atomic.Int64
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			// First two opens die partway through; the third delivers the
			// whole pass. Records before the cut are re-read on reopen —
			// the "fresh source positioned where the caller wants" contract.
			switch opens.Add(1) {
			case 1:
				return &errAfterSource{recs: recs[:10]}, nil
			case 2:
				return &errAfterSource{recs: recs[:25]}, nil
			default:
				return survey.NewSliceSource(recs), nil
			}
		},
		Backoff: time.Millisecond,
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 10+25+60 {
		t.Errorf("Records = %d, want 95 (two partial passes + one full)", stats.Records)
	}
	if stats.SourceErrors != 2 || stats.Reopens != 2 {
		t.Errorf("SourceErrors = %d, Reopens = %d; want 2 and 2", stats.SourceErrors, stats.Reopens)
	}
}

func TestRunIngestPublishAndCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	recs := ingestRecs(64)
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			return survey.NewSliceSource(recs), nil
		},
		PublishEvery:    16,
		CheckpointEvery: 32,
	}
	st := NewStore()
	now := int64(1)
	st.SetClock(func() int64 { return now })
	adv := New()
	ck := &Checkpointer{Dir: dir, Keep: 10}
	stats, err := RunIngest(context.Background(), cfg, st, adv, ck)
	if err != nil {
		t.Fatal(err)
	}
	// 64 records / publish every 16 = 4 in-stream publishes, plus the final.
	if stats.Publishes != 5 {
		t.Errorf("Publishes = %d, want 5", stats.Publishes)
	}
	// Checkpoints at records 32 and 64, plus the final one.
	if stats.Checkpoints != 3 {
		t.Errorf("Checkpoints = %d, want 3", stats.Checkpoints)
	}
	if got := len(ck.generations()); got != 3 {
		t.Errorf("generations on disk = %d, want 3", got)
	}
	// The newest generation is the final publish's epoch and recovers to
	// the full store.
	st2, epoch, _, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != adv.Current().Epoch() {
		t.Errorf("recovered epoch = %d, want %d", epoch, adv.Current().Epoch())
	}
	if st2.Records() != 64 {
		t.Errorf("recovered records = %d, want 64", st2.Records())
	}
}

// infiniteSource generates records forever — the tail-a-live-feed shape.
type infiniteSource struct{ i int }

func (s *infiniteSource) Read() (survey.Record, error) {
	s.i++
	return survey.Record{
		Type: survey.RecMatched,
		Addr: ipaddr.Addr(0x0a000001 + uint32(s.i%64)<<8),
		When: time.Duration(s.i) * time.Second,
		RTT:  time.Duration(1+s.i%500) * time.Millisecond,
	}, nil
}

// TestRunIngestCancelDrains pins the drain contract: cancelling the context
// mid-tail returns nil (not an error), publishes what was ingested, and
// writes a final checkpoint.
func TestRunIngestCancelDrains(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStore()
	now := int64(1)
	st.SetClock(func() int64 { return now })
	adv := New()
	ck := &Checkpointer{Dir: dir}
	cfg := IngestConfig{
		Open:         func() (survey.RecordSource, error) { return &infiniteSource{}, nil },
		PublishEvery: 50,
	}
	go func() {
		// Cancel once records have demonstrably flowed — observed through
		// the atomic snapshot pointer, never the single-writer store.
		for adv.Current() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	stats, err := RunIngest(ctx, cfg, st, adv, ck)
	if err != nil {
		t.Fatalf("RunIngest on cancel = %v, want nil (drain)", err)
	}
	if stats.Records == 0 {
		t.Fatal("drained with zero records")
	}
	if adv.Current() == nil || adv.Current().Samples() == 0 {
		t.Error("no final publish on drain")
	}
	if stats.Checkpoints == 0 || len(ck.generations()) == 0 {
		t.Error("no final checkpoint on drain")
	}
	st2, _, _, err := ck.Load()
	if err != nil || st2 == nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
}

func TestRunIngestTailReopensAtEOF(t *testing.T) {
	recs := ingestRecs(20)
	var opens atomic.Int64
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			opens.Add(1)
			return survey.NewSliceSource(recs), nil
		},
		Tail: 2, // first pass + two reopens = three passes
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opens.Load() != 3 || stats.Records != 60 || stats.Reopens != 2 {
		t.Errorf("opens = %d, Records = %d, Reopens = %d; want 3, 60, 2",
			opens.Load(), stats.Records, stats.Reopens)
	}
}

// corruptCSV builds a CSV dataset of good records with nBad garbage rows
// interleaved, which the lenient reader skips and counts.
func corruptCSV(t *testing.T, good []survey.Record, nBad int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := survey.NewCSVWriter(&buf)
	for _, r := range good {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	for i := 0; i < nBad; i++ {
		out = append(out, []byte(fmt.Sprintf("garbage,row,%d,?\n", i))...)
	}
	return out
}

func TestRunIngestCountsCorruptRecords(t *testing.T) {
	good := ingestRecs(40)
	data := corruptCSV(t, good, 7)
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			src, _, err := survey.OpenSourceLenient(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return src, nil
		},
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 40 || stats.Skipped != 7 {
		t.Errorf("Records = %d, Skipped = %d; want 40 and 7", stats.Records, stats.Skipped)
	}
}

func TestRunIngestSkipBudget(t *testing.T) {
	good := ingestRecs(10)
	data := corruptCSV(t, good, 30)
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			src, _, err := survey.OpenSourceLenient(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return src, nil
		},
		MaxSkip: 5,
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if !errors.Is(err, ErrSkipBudget) {
		t.Fatalf("err = %v, want ErrSkipBudget", err)
	}
	if stats.Skipped <= 5 {
		t.Errorf("Skipped = %d, want > budget of 5", stats.Skipped)
	}
	// The good records read before the budget blew still landed.
	if stats.Records != 10 {
		t.Errorf("Records = %d, want 10", stats.Records)
	}
}

func TestRunIngestRequiresOpen(t *testing.T) {
	if _, err := RunIngest(context.Background(), IngestConfig{}, NewStore(), nil, nil); err == nil {
		t.Fatal("nil Open accepted")
	}
}

func TestIngestBackoffJitterBounds(t *testing.T) {
	cfg := IngestConfig{Backoff: 100 * time.Millisecond, BackoffMax: 2 * time.Second, Seed: 9}
	prevCap := time.Duration(0)
	for attempt := uint64(0); attempt < 12; attempt++ {
		d := cfg.backoffDelay(attempt)
		base := 100 * time.Millisecond << attempt
		if base > 2*time.Second {
			base = 2 * time.Second
		}
		lo, hi := base/2, base+base/2
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if base == 2*time.Second {
			prevCap = d
		}
	}
	if prevCap == 0 {
		t.Error("backoff never reached its cap")
	}
	// Deterministic: same seed, same delays.
	if cfg.backoffDelay(3) != cfg.backoffDelay(3) {
		t.Error("jitter is not deterministic")
	}
}

// slowSource blocks each Read briefly so the bounded queue actually fills
// and drains under ctx control; used to smoke the backpressure path.
type slowSource struct{ i int }

func (s *slowSource) Read() (survey.Record, error) {
	if s.i >= 2000 {
		return survey.Record{}, io.EOF
	}
	s.i++
	return survey.Record{
		Type: survey.RecMatched,
		Addr: ipaddr.Addr(0x0a000001),
		When: time.Duration(s.i) * time.Second,
		RTT:  time.Millisecond,
	}, nil
}

func TestRunIngestBoundedQueue(t *testing.T) {
	cfg := IngestConfig{
		Open:  func() (survey.RecordSource, error) { return &slowSource{}, nil },
		Queue: 4, // tiny queue: the reader must block on the consumer
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil || stats.Records != 2000 {
		t.Fatalf("Records = %d, %v; want 2000 through a 4-deep queue", stats.Records, err)
	}
}

// TestRunIngestSourceErrorFlushesPartialBatch: a source that dies after a
// record count that is not a multiple of the batch size still delivers
// every record it yielded — the reader hands over its partial batch before
// backing off.
func TestRunIngestSourceErrorFlushesPartialBatch(t *testing.T) {
	for _, n := range []int{1, ingestBatch - 1, ingestBatch + 1, 3*ingestBatch + 44} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			recs := ingestRecs(n)
			var opens atomic.Int64
			cfg := IngestConfig{
				Open: func() (survey.RecordSource, error) {
					if opens.Add(1) == 1 {
						return &errAfterSource{recs: recs}, nil
					}
					return survey.NewSliceSource(nil), nil
				},
				Backoff: time.Millisecond,
			}
			st := NewStore()
			stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Records != uint64(n) || st.Records() != uint64(n) || stats.SourceErrors != 1 {
				t.Errorf("Records = %d (store %d), SourceErrors = %d; want %d, %d, 1",
					stats.Records, st.Records(), stats.SourceErrors, n, n)
			}
		})
	}
}

// TestRunIngestPublishCadenceIsPerRecord: publish intervals that do not
// divide the batch size still publish at exactly every PublishEvery
// records, epoch k holding k×PublishEvery records, as per-record hand-off
// did. Checkpointing at every publish makes each epoch's store readable.
func TestRunIngestPublishCadenceIsPerRecord(t *testing.T) {
	const n = 2610
	for _, every := range []uint64{50, 1000} {
		t.Run(fmt.Sprint(every), func(t *testing.T) {
			dir := t.TempDir()
			recs := ingestRecs(n)
			cfg := IngestConfig{
				Open:            func() (survey.RecordSource, error) { return survey.NewSliceSource(recs), nil },
				PublishEvery:    every,
				CheckpointEvery: every,
			}
			st := NewStore()
			now := int64(1)
			st.SetClock(func() int64 { return now })
			adv := New()
			ck := &Checkpointer{Dir: dir, Keep: 1000}
			stats, err := RunIngest(context.Background(), cfg, st, adv, ck)
			if err != nil {
				t.Fatal(err)
			}
			in := uint64(n) / every
			if stats.Publishes != in+1 || adv.Current().Epoch() != in+1 {
				t.Fatalf("Publishes = %d, final epoch %d; want %d and %d",
					stats.Publishes, adv.Current().Epoch(), in+1, in+1)
			}
			names := ck.generations()
			if uint64(len(names)) != in+1 {
				t.Fatalf("%d checkpoint generations, want %d", len(names), in+1)
			}
			for _, name := range names {
				f, err := os.Open(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				got, epoch, err := DecodeCheckpoint(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				want := min(epoch*every, n)
				if got.Records() != want {
					t.Errorf("epoch %d holds %d records, want %d", epoch, got.Records(), want)
				}
			}
		})
	}
}

// aheadSource yields matched records and tracks how far it ever ran ahead
// of the records the consumer has applied, as the live progress reports
// them.
type aheadSource struct {
	n, read  int
	progress *IngestProgress
	maxAhead int
}

func (s *aheadSource) Read() (survey.Record, error) {
	if ahead := s.read - int(s.progress.Records()); ahead > s.maxAhead {
		s.maxAhead = ahead
	}
	if s.read == s.n {
		return survey.Record{}, io.EOF
	}
	s.read++
	return survey.Record{
		Type: survey.RecMatched,
		Addr: ipaddr.Addr(0x0a000001 + uint32(s.read%64)<<8),
		When: time.Duration(s.read) * time.Second,
		RTT:  time.Millisecond,
	}, nil
}

// TestRunIngestQueueBoundsReadAhead: the reader never holds more than Queue
// plus one batch of records the store has not applied — including a Queue
// smaller than the default batch, which shrinks the batch to fit.
func TestRunIngestQueueBoundsReadAhead(t *testing.T) {
	for _, queue := range []int{1, 4, 1000} {
		t.Run(fmt.Sprint(queue), func(t *testing.T) {
			progress := &IngestProgress{}
			src := &aheadSource{n: 5000, progress: progress}
			cfg := IngestConfig{
				Open:     func() (survey.RecordSource, error) { return src, nil },
				Queue:    queue,
				Progress: progress,
			}
			stats, err := RunIngest(context.Background(), cfg, NewStore(), nil, nil)
			if err != nil || stats.Records != 5000 || progress.Records() != 5000 {
				t.Fatalf("Records = %d (progress %d), %v; want 5000", stats.Records, progress.Records(), err)
			}
			// RunIngest has returned, so the reader goroutine's writes to
			// src happen before this read (the queue's close orders them).
			batch := min(ingestBatch, queue)
			if src.maxAhead < 1 || src.maxAhead > queue+batch {
				t.Errorf("reader ran %d records ahead, want 1..%d (Queue %d + batch %d)",
					src.maxAhead, queue+batch, queue, batch)
			}
		})
	}
}

// TestRunIngestCancelMidBatch: a cancel that lands while the consumer is
// inside a batch finishes that batch — drain stops at a batch boundary —
// then publishes and checkpoints what the store holds.
func TestRunIngestCancelMidBatch(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := NewStore()
	var samples int64
	st.SetClock(func() int64 {
		// The clock runs on the consumer, once per sample: cancel inside
		// the first batch, on the consumer's own goroutine.
		if samples++; samples == 100 {
			cancel()
		}
		return samples
	})
	adv := New()
	ck := &Checkpointer{Dir: dir}
	cfg := IngestConfig{
		Open:         func() (survey.RecordSource, error) { return &infiniteSource{}, nil },
		PublishEvery: 4096,
	}
	stats, err := RunIngest(ctx, cfg, st, adv, ck)
	if err != nil {
		t.Fatalf("RunIngest on cancel = %v, want nil (drain)", err)
	}
	if stats.Records == 0 || stats.Records%ingestBatch != 0 {
		t.Errorf("drained after %d records, want a whole number of %d-record batches", stats.Records, ingestBatch)
	}
	if stats.Publishes != 1 || stats.Checkpoints != 1 {
		t.Errorf("Publishes = %d, Checkpoints = %d; want the final one of each", stats.Publishes, stats.Checkpoints)
	}
	got, epoch, _, err := ck.Load()
	if err != nil || got == nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if epoch != adv.Current().Epoch() || got.Records() != stats.Records {
		t.Errorf("checkpoint = epoch %d with %d records, want epoch %d with %d",
			epoch, got.Records(), adv.Current().Epoch(), stats.Records)
	}
}

// TestRunIngestSteadyStateAllocs pins the batch free list: ingesting into a
// warm store allocates a fixed set-up cost per RunIngest, not one batch per
// 256 records.
func TestRunIngestSteadyStateAllocs(t *testing.T) {
	const n = 200_000
	recs := ingestRecs(1024)
	st := NewStore()
	for _, r := range recs {
		st.Observe(r)
	}
	allocs := testing.AllocsPerRun(3, func() {
		cfg := IngestConfig{
			Open: func() (survey.RecordSource, error) { return &replaySource{recs: recs, n: n}, nil },
		}
		if _, err := RunIngest(context.Background(), cfg, st, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(n / ingestBatch / 4); allocs > max {
		t.Errorf("RunIngest of %d records allocated %.0f times, want at most %.0f", n, allocs, max)
	}
}

// replaySource cycles through recs for n records.
type replaySource struct {
	recs []survey.Record
	n, i int
}

func (s *replaySource) Read() (survey.Record, error) {
	if s.i == s.n {
		return survey.Record{}, io.EOF
	}
	s.i++
	return s.recs[s.i%len(s.recs)], nil
}
