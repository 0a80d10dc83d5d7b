package advisor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"timeouts/internal/obs"
	"timeouts/internal/survey"
	"timeouts/internal/xrand"
)

// ErrSkipBudget reports that lenient sources skipped more corrupt records
// than IngestConfig.MaxSkip allows — the loop's terminal "this feed is
// mostly noise" error, matchable with errors.Is.
var ErrSkipBudget = errors.New("advisor: ingest corrupt-record skip budget exceeded")

// Resilient continuous ingest: RunIngest supervises a record source through a
// bounded queue into the store, republishing advice as it goes. The loop is
// built to survive the three ways a long-running feed fails — the source
// stops opening (backoff and retry with jitter), records arrive corrupt
// (count, skip, continue, within an error budget), and the consumer falls
// behind (bounded queue backpressure, never unbounded memory) — because an
// advisor that dies with its feed takes the whole serving plane down with it.

// siteIngestBackoff salts the backoff jitter hash.
const siteIngestBackoff uint64 = 0x696e6762 // "ingb"

// IngestConfig configures RunIngest. Open is required; everything else has a
// production default.
type IngestConfig struct {
	// Open produces the record source to tail; it is called once at start
	// and again after every EOF (when tailing) or source error. Each call
	// should return a fresh source positioned at the records the caller
	// wants re-read — typically reopening a growing file or redialing a
	// feed. Sources that also satisfy survey.StatSource get their per-cause
	// skip counts harvested into the loop's stats.
	Open func() (survey.RecordSource, error)
	// Queue bounds the records in flight between the reader and the store
	// (default 1024): the batches queued for the consumer plus the one it is
	// applying. A full queue blocks the reader — backpressure — instead of
	// growing memory.
	Queue int
	// Backoff is the initial retry delay after a failed open or a source
	// error (default 100ms), doubling per consecutive failure up to
	// BackoffMax (default 30s), with ±50% deterministic jitter derived from
	// Seed so restarts don't synchronize.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Seed drives the jitter (and nothing else).
	Seed uint64
	// Tail is how many times to reopen the source after a clean EOF:
	// 0 ingests a single pass and stops; negative tails forever. Source
	// errors always reopen regardless of Tail — they are failures to
	// retry, not ends to respect.
	Tail int
	// PublishEvery republishes advice after every N records consumed
	// (default 4096; the final publish always happens).
	PublishEvery uint64
	// CheckpointEvery checkpoints after every N records consumed, aligned
	// to the publish that precedes it (0 = only the final checkpoint).
	CheckpointEvery uint64
	// MaxSkip is the corrupt-record budget: once more than MaxSkip records
	// have been skipped by lenient sources, the loop stops with an error —
	// a feed that is mostly noise should page someone, not quietly thin
	// the advice. 0 means unlimited.
	MaxSkip uint64
	// Progress, when set, is updated live as the loop runs — records
	// consumed, current queue depth, active backoff, last publish time — so
	// /healthz and /metrics can report ingest lag while the loop is still
	// inside RunIngest (RegisterIngestObs only fires after it returns).
	Progress *IngestProgress
	// Obs, when set, receives the loop's diagnostic high-water gauges
	// (advisor.ingest.loop.queue_hwm, advisor.ingest.loop.backoff_hwm_ns).
	Obs *obs.Registry
	// Trace, when set, records wall-clock spans for each publish and
	// checkpoint the loop performs (ingest.publish, ingest.checkpoint).
	Trace *obs.Tracer
}

// IngestProgress is the live, concurrently-readable view of a running
// ingest loop, shared between RunIngest (writer) and the serve plane's
// /healthz and /metrics handlers (readers). All methods are nil-safe, so a
// handler can hold an optional *IngestProgress without guards.
type IngestProgress struct {
	records     atomic.Uint64
	queued      atomic.Int64
	backoffNS   atomic.Int64
	lastPublish atomic.Int64 // unix ns; 0 = no publish yet
}

// Records returns how many records have reached the store so far.
func (p *IngestProgress) Records() uint64 {
	if p == nil {
		return 0
	}
	return p.records.Load()
}

// Queued returns the ingest queue depth, in records, as of the consumer's
// last batch — the records sitting between the reader and the store.
// A persistently full queue means the consumer (store + publish +
// checkpoint) is the bottleneck.
func (p *IngestProgress) Queued() int64 {
	if p == nil {
		return 0
	}
	return p.queued.Load()
}

// Backoff returns the backoff delay the reader is currently sleeping
// through (zero when the source is healthy).
func (p *IngestProgress) Backoff() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.backoffNS.Load())
}

// LastPublishAt returns the wall time (unix ns) of the loop's most recent
// advice publish, 0 before the first.
func (p *IngestProgress) LastPublishAt() int64 {
	if p == nil {
		return 0
	}
	return p.lastPublish.Load()
}

// CollectProm exports the live ingest series for /metrics scrapes.
func (p *IngestProgress) CollectProm(w *obs.PromWriter) {
	if p == nil {
		return
	}
	w.Type("advisor_ingest_live_records", "counter")
	w.Sample("advisor_ingest_live_records", float64(p.Records()))
	w.Type("advisor_ingest_queue_depth", "gauge")
	w.Sample("advisor_ingest_queue_depth", float64(p.Queued()))
	w.Type("advisor_ingest_backoff_seconds", "gauge")
	w.Sample("advisor_ingest_backoff_seconds", p.Backoff().Seconds())
}

// noteBatch records n consumed records and the queue depth behind them.
func (p *IngestProgress) noteBatch(n int, depth int64) {
	if p == nil {
		return
	}
	p.records.Add(uint64(n))
	p.queued.Store(depth)
}

// notePublish stamps the publish time.
func (p *IngestProgress) notePublish() {
	if p == nil {
		return
	}
	p.lastPublish.Store(time.Now().UnixNano())
}

// setBackoff publishes the backoff the reader is sleeping through (0 clears).
func (p *IngestProgress) setBackoff(d time.Duration) {
	if p == nil {
		return
	}
	p.backoffNS.Store(int64(d))
}

// IngestStats reports what one RunIngest did.
type IngestStats struct {
	// Records is how many records reached the store.
	Records uint64
	// Skipped is how many corrupt records lenient sources dropped.
	Skipped uint64
	// Reopens counts source reopens (tail EOFs and error retries).
	Reopens uint64
	// SourceErrors counts failed opens and mid-stream source errors.
	SourceErrors uint64
	// Publishes and Checkpoints count advice republishes and durable saves,
	// final ones included.
	Publishes   uint64
	Checkpoints uint64
}

// ingestCounters is the reader/consumer-shared form of IngestStats.
type ingestCounters struct {
	skipped      atomic.Uint64
	reopens      atomic.Uint64
	sourceErrors atomic.Uint64
}

// backoffDelay returns the jittered exponential delay for the attempt-th
// consecutive failure (attempt counts from 0).
func (cfg *IngestConfig) backoffDelay(attempt uint64) time.Duration {
	base := cfg.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := cfg.BackoffMax
	if max <= 0 {
		max = 30 * time.Second
	}
	d := base
	for i := uint64(0); i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// ±50% deterministic jitter: restarts spread instead of thundering.
	j := 0.5 + xrand.HashFloat(cfg.Seed, siteIngestBackoff, attempt)
	return time.Duration(float64(d) * j)
}

// backoffSleep publishes the retry delay (progress gauge + high-water metric)
// for the attempt-th consecutive failure, sleeps it out, and clears the
// published backoff — so /healthz and /metrics show the reader is in backoff
// while it is, not after.
func backoffSleep(ctx context.Context, cfg *IngestConfig, attempt uint64) bool {
	d := cfg.backoffDelay(attempt)
	cfg.Progress.setBackoff(d)
	cfg.Obs.DiagGauge("advisor.ingest.loop.backoff_hwm_ns").Observe(int64(d))
	ok := sleep(ctx, d)
	cfg.Progress.setBackoff(0)
	return ok
}

// sleep waits d or until ctx is done, reporting whether the wait completed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ingestBatch is how many records the reader hands the consumer at once
// (capped at IngestConfig.Queue). Per-record channel hand-off made the
// select and channel locking, not the store, the loop's main cost; a batch
// pays it once per 256 records.
const ingestBatch = 256

// batchQueue is the bounded hand-off between RunIngest's reader and its
// consumer: full batches flow forward over ch, emptied ones come back over
// free, so a steady-state ingest allocates no batches at all.
type batchQueue struct {
	size   int                  // records per full batch
	ch     chan []survey.Record // filled batches, reader → consumer
	free   chan []survey.Record // emptied batches, consumer → reader
	queued atomic.Int64         // records sitting in ch
}

// newBatchQueue sizes the hand-off so at most queue records are in flight:
// the consumer's current batch plus queue/size-1 batches buffered in ch.
func newBatchQueue(queue int) *batchQueue {
	size := min(ingestBatch, queue)
	depth := queue/size - 1
	return &batchQueue{
		size: size,
		ch:   make(chan []survey.Record, depth),
		// Every batch alive is in ch, with the consumer, or with the
		// reader, so free never needs more room than that.
		free: make(chan []survey.Record, depth+2),
	}
}

// get returns an empty batch, recycled when one is free.
func (q *batchQueue) get() []survey.Record {
	select {
	case b := <-q.free:
		return b
	default:
		return make([]survey.Record, 0, q.size)
	}
}

// put recycles an applied batch.
func (q *batchQueue) put(b []survey.Record) {
	select {
	case q.free <- b[:0]:
	default:
	}
}

// send hands a non-empty batch to the consumer, blocking while the queue is
// full, and reports false if ctx ended first.
func (q *batchQueue) send(ctx context.Context, b []survey.Record) bool {
	q.queued.Add(int64(len(b)))
	select {
	case q.ch <- b:
		return true
	case <-ctx.Done():
		return false
	}
}

// RunIngest tails cfg.Open into st, republishing via adv and checkpointing
// via ck (both optional: nil adv skips publishing, nil ck no-ops saves), until
// the source is exhausted (per Tail), the skip budget is blown, or ctx is
// cancelled. Cancellation is the drain path and returns nil: the loop stops
// consuming at the next batch boundary, publishes what it has, writes a
// final checkpoint, and hands back. The returned stats are complete in every
// case.
//
// Records cross from the reader to the store in batches, but publishing and
// checkpointing stay exact per record: the consumer tests the cadence after
// every record it applies, so publishes land at the same record counts —
// with the same epochs — whatever the batch boundaries.
//
// Observability counters (advisor.ingest.loop.*) register on reg if the
// caller wires one via RegisterIngestObs; RunIngest itself stays free of
// registry state so concurrent tests can run loops without sharing metrics.
func RunIngest(ctx context.Context, cfg IngestConfig, st *Store, adv *Advisor, ck *Checkpointer) (IngestStats, error) {
	if cfg.Open == nil {
		return IngestStats{}, fmt.Errorf("advisor: RunIngest needs an Open function")
	}
	queue := cfg.Queue
	if queue <= 0 {
		queue = 1024
	}
	publishEvery := cfg.PublishEvery
	if publishEvery == 0 {
		publishEvery = 4096
	}

	var ctrs ingestCounters
	q := newBatchQueue(queue)
	readErr := make(chan error, 1) // the reader's terminal error, if any
	queueHWM := cfg.Obs.DiagGauge("advisor.ingest.loop.queue_hwm")

	rctx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	go func() {
		defer close(q.ch)
		readErr <- readLoop(rctx, &cfg, &ctrs, q)
	}()

	var stats IngestStats
	var sinceCkpt uint64
	drained := false // ctx cancelled: finish up without consuming more
	publish := func() uint64 {
		if adv == nil {
			return 0
		}
		end := cfg.Trace.StartWall("ingest.publish")
		epoch := adv.Publish(st).Epoch()
		end()
		stats.Publishes++
		cfg.Progress.notePublish()
		return epoch
	}
	checkpoint := func(epoch uint64) error {
		end := cfg.Trace.StartWall("ingest.checkpoint")
		_, err := ck.Save(st, epoch)
		end()
		return err
	}
	finish := func(terminal error) (IngestStats, error) {
		stats.Skipped = ctrs.skipped.Load()
		stats.Reopens = ctrs.reopens.Load()
		stats.SourceErrors = ctrs.sourceErrors.Load()
		epoch := publish()
		if ck != nil {
			if err := checkpoint(epoch); err != nil {
				if terminal == nil {
					terminal = fmt.Errorf("advisor: final checkpoint: %w", err)
				}
			} else {
				stats.Checkpoints++
			}
		}
		return stats, terminal
	}

	for {
		if drained {
			return finish(nil)
		}
		select {
		case <-ctx.Done():
			// Drain: stop the reader, consume nothing further, keep what
			// the store already holds.
			stopReader()
			drained = true
		case batch, ok := <-q.ch:
			if !ok {
				err := <-readErr
				if err == context.Canceled {
					err = nil // cancellation is the drain path
				}
				return finish(err)
			}
			depth := q.queued.Add(-int64(len(batch)))
			for _, rec := range batch {
				st.Observe(rec)
				stats.Records++
				sinceCkpt++
				if stats.Records%publishEvery == 0 {
					epoch := publish()
					if cfg.CheckpointEvery > 0 && sinceCkpt >= cfg.CheckpointEvery && ck != nil {
						if err := checkpoint(epoch); err == nil {
							stats.Checkpoints++
						}
						sinceCkpt = 0
					}
				}
			}
			cfg.Progress.noteBatch(len(batch), depth)
			queueHWM.Observe(depth)
			q.put(batch)
		}
	}
}

// readLoop is RunIngest's reader side: open the source, gather records into
// batches and hand them to the consumer (blocking on a full queue —
// backpressure), harvest skip stats, back off and reopen on failure. It
// returns nil on a clean end of input, context.Canceled when stopped, or the
// terminal error (skip budget blown). Whenever a source stops — EOF, error
// or blown budget — its partial batch is handed over first, so every record
// read reaches the store.
func readLoop(ctx context.Context, cfg *IngestConfig, ctrs *ingestCounters, q *batchQueue) error {
	var failures uint64 // consecutive, for backoff
	var passes int      // clean EOFs seen, for Tail
	for {
		if ctx.Err() != nil {
			return context.Canceled
		}
		src, err := cfg.Open()
		if err != nil {
			ctrs.sourceErrors.Add(1)
			if !backoffSleep(ctx, cfg, failures) {
				return context.Canceled
			}
			failures++
			ctrs.reopens.Add(1)
			continue
		}
		failures = 0
		stat, _ := src.(survey.StatSource)
		harvested := uint64(0) // this source's skips already folded into ctrs
		harvest := func() {
			if stat == nil {
				return
			}
			if s := stat.Stats().Skipped(); s > harvested {
				ctrs.skipped.Add(s - harvested)
				harvested = s
			}
		}
		overBudget := func() error {
			if cfg.MaxSkip > 0 {
				if sk := ctrs.skipped.Load(); sk > cfg.MaxSkip {
					return fmt.Errorf("%w: %d corrupt records (budget %d)",
						ErrSkipBudget, sk, cfg.MaxSkip)
				}
			}
			return nil
		}
		srcErr := func() error {
			batch := q.get()
			for {
				rec, err := src.Read()
				harvest()
				// Enforce the budget on every read — including the EOF one,
				// so an all-corrupt source still trips it — and before
				// forwarding, so a lenient source that skips unboundedly
				// between two good records cannot outrun it.
				if berr := overBudget(); berr != nil {
					err = berr
				}
				if err != nil {
					if len(batch) > 0 && !q.send(ctx, batch) {
						return context.Canceled
					}
					return err
				}
				batch = append(batch, rec)
				if len(batch) == q.size {
					if !q.send(ctx, batch) {
						return context.Canceled
					}
					batch = q.get()
				}
			}
		}()
		switch {
		case srcErr == io.EOF:
			if cfg.Tail == 0 || (cfg.Tail > 0 && passes >= cfg.Tail) {
				return nil
			}
			passes++
			ctrs.reopens.Add(1)
		case srcErr == context.Canceled:
			return context.Canceled
		case errors.Is(srcErr, ErrSkipBudget):
			return srcErr
		default:
			ctrs.sourceErrors.Add(1)
			if !backoffSleep(ctx, cfg, failures) {
				return context.Canceled
			}
			failures++
			ctrs.reopens.Add(1)
		}
	}
}

// RegisterIngestObs folds one RunIngest's stats into reg's diagnostic
// counters, so long-running daemons expose ingest health without the loop
// itself carrying registry state.
func RegisterIngestObs(reg *obs.Registry, s IngestStats) {
	reg.DiagCounter("advisor.ingest.loop.records").Add(s.Records)
	reg.DiagCounter("advisor.ingest.loop.skipped").Add(s.Skipped)
	reg.DiagCounter("advisor.ingest.loop.reopens").Add(s.Reopens)
	reg.DiagCounter("advisor.ingest.loop.source_errors").Add(s.SourceErrors)
	reg.DiagCounter("advisor.ingest.loop.publishes").Add(s.Publishes)
	reg.DiagCounter("advisor.ingest.loop.checkpoints").Add(s.Checkpoints)
}
