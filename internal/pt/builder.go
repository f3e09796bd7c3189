package pt

import (
	"context"
	"fmt"
	"sync"

	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// FaultPolicy selects how a Builder treats corrupted packet spans.
type FaultPolicy int

const (
	// FaultResync skips to the next PSB after a corrupted span and
	// accounts the loss in DecodeStats — the default, and what hardware
	// PT decoders do across buffer wraps and perf DROP records.
	FaultResync FaultPolicy = iota
	// FaultFail aborts the build with a *CorruptionError on the first
	// corrupted span. Use it where silent loss must be fatal.
	FaultFail
)

// CorruptionError is returned by Build under FaultFail when a sample's
// packet stream needed at least one resync.
type CorruptionError struct {
	Seq       int // sequence number of the corrupted sample
	Resyncs   int // corruption points found in it
	LostBytes int // payload bytes its resyncs cost
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("pt: corrupt sample %d: %d resync(s), %d payload bytes lost",
		e.Seq, e.Resyncs, e.LostBytes)
}

// BuildOptions is the resolved configuration of a Builder. The zero
// value is the default: GOMAXPROCS workers, resync on faults, no sink.
type BuildOptions struct {
	// Workers bounds the samples decoded concurrently (<= 0 selects
	// GOMAXPROCS). Sample order in the built trace is deterministic
	// regardless of the worker count.
	Workers int
	// Policy selects fault handling (default FaultResync).
	Policy FaultPolicy
	// StatsSink, when non-nil, receives the final DecodeStats of a
	// successful build — in addition to Build returning them.
	StatsSink func(DecodeStats)
	// Progress, when non-nil, is called after each decoded sample with
	// the number done and the total. Calls are serialised.
	Progress func(done, total int)
	// ChunkBytes is the read granularity of the streamed build path
	// (BuildCaptureStream): raw bytes are consumed in chunks of this
	// size and samples at least streamInlineChunks chunks long decode
	// incrementally without ever being buffered whole (<= 0 selects
	// DefaultStreamChunk). Ignored by Build, which already holds the
	// collector's buffers.
	ChunkBytes int
	// SampleSink, when non-nil, receives every decoded sample window —
	// nil when the window decoded to no records — keyed by its position
	// in the capture. Windows are emitted as soon as they decode: calls
	// may arrive on any worker goroutine, concurrently and out of
	// order. engine.StreamAccum is a ready-made library sink that folds
	// the windows into whole-trace diagnostics; memgazed does not attach
	// one, since the built trace already answers its upload.
	SampleSink func(idx int, s *trace.Sample)
}

// BuildOption configures a Builder; pass them to NewBuilder.
type BuildOption func(*BuildOptions)

// WithWorkers bounds the number of samples decoded concurrently.
func WithWorkers(n int) BuildOption {
	return func(o *BuildOptions) { o.Workers = n }
}

// WithFaultPolicy selects how corrupted packet spans are handled.
func WithFaultPolicy(p FaultPolicy) BuildOption {
	return func(o *BuildOptions) { o.Policy = p }
}

// WithStatsSink registers a callback for the final DecodeStats.
func WithStatsSink(fn func(DecodeStats)) BuildOption {
	return func(o *BuildOptions) { o.StatsSink = fn }
}

// WithProgress registers a per-sample progress callback.
func WithProgress(fn func(done, total int)) BuildOption {
	return func(o *BuildOptions) { o.Progress = fn }
}

// WithChunkBytes sets the streamed build's read granularity.
func WithChunkBytes(n int) BuildOption {
	return func(o *BuildOptions) { o.ChunkBytes = n }
}

// WithSampleSink registers a per-window sink for incremental consumers.
func WithSampleSink(fn func(idx int, s *trace.Sample)) BuildOption {
	return func(o *BuildOptions) { o.SampleSink = fn }
}

// Builder converts a collector's raw output into a load-level trace —
// the paper's "Analysis/1" step (Table II) — decoding samples in
// parallel on a bounded worker pool with deterministic reassembly.
// Create one with NewBuilder and execute it with Build; a Builder is
// read-only over the collector, so the same collector can be rebuilt
// under different options.
type Builder struct {
	col  *Collector
	ann  *instrument.Annotations
	opts BuildOptions
}

// NewBuilder creates a trace builder over a collector and the module's
// annotations, mirroring memgaze.NewAnalyzer's functional-option style.
func NewBuilder(col *Collector, ann *instrument.Annotations, opts ...BuildOption) *Builder {
	if col == nil || ann == nil {
		panic("pt: NewBuilder needs a collector and annotations")
	}
	b := &Builder{col: col, ann: ann}
	for _, opt := range opts {
		opt(&b.opts)
	}
	return b
}

// Build decodes everything the collector recorded into a trace. For
// sampled collectors each raw snapshot decodes independently on the
// worker pool; full-mode collectors already hold decoded events and
// take a single-pass path. The returned DecodeStats account every raw
// byte (decoded, framing, or lost). Build returns ctx's error on
// cancellation and a *CorruptionError under FaultFail.
func (b *Builder) Build(ctx context.Context) (*trace.Trace, DecodeStats, error) {
	if b.col.cfg.Mode == ModeFull {
		return b.buildFull(ctx)
	}
	return b.buildSampled(ctx)
}

func (b *Builder) buildSampled(ctx context.Context) (*trace.Trace, DecodeStats, error) {
	samples := b.col.Samples()
	type slot struct {
		sample *trace.Sample
		ds     DecodeStats
	}
	slots := make([]slot, len(samples))
	var mu sync.Mutex
	done := 0
	tasks := make([]func(context.Context) error, len(samples))
	for i := range samples {
		tasks[i] = func(context.Context) error {
			rs := samples[i]
			events, st := DecodeWindow(rs.Raw)
			sample, ds, err := sampleFromWindow(rs.Seq, rs.TriggerLoads, events, st, b.ann, b.opts.Policy)
			if err != nil {
				return err
			}
			if b.opts.SampleSink != nil {
				b.opts.SampleSink(i, sample)
			}
			slots[i].sample = sample
			slots[i].ds = ds
			if b.opts.Progress != nil {
				mu.Lock()
				done++
				b.opts.Progress(done, len(samples))
				mu.Unlock()
			}
			return nil
		}
	}
	if err := engine.RunPool(ctx, b.opts.Workers, tasks); err != nil {
		return nil, DecodeStats{}, err
	}

	// Reassemble in sample order: identical output for any worker count.
	t := &trace.Trace{
		Module:   b.ann.Module,
		Mode:     b.col.cfg.Mode.String(),
		Period:   b.col.cfg.Period,
		BufBytes: b.col.cfg.BufBytes,
	}
	var ds DecodeStats
	nrec := 0
	for i := range slots {
		if slots[i].sample != nil {
			nrec += len(slots[i].sample.Records)
		}
	}
	t.Reserve(len(slots), nrec)
	for i := range slots {
		ds.Add(slots[i].ds)
		if slots[i].sample != nil {
			// Emit straight into the trace's columns, in sample order.
			t.AppendSample(slots[i].sample)
		}
	}
	t.TotalLoads = b.col.Loads()
	t.Bytes = b.col.BytesRecorded()
	t.RecordedEvents = b.col.EventsRecorded()
	t.LostBytes = uint64(ds.SkippedBytes)
	ds.Records = t.NumRecords()
	if b.opts.StatsSink != nil {
		b.opts.StatsSink(ds)
	}
	return t, ds, nil
}

func (b *Builder) buildFull(ctx context.Context) (*trace.Trace, DecodeStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, DecodeStats{}, err
	}
	var ds DecodeStats
	events := b.col.FullEvents()
	ds.Events = len(events)
	recs := eventsToRecords(events, b.ann, &ds)
	t := &trace.Trace{
		Module:         b.ann.Module,
		Mode:           ModeFull.String(),
		TotalLoads:     b.col.Loads(),
		Bytes:          b.col.BytesRecorded(),
		DroppedEvents:  b.col.Dropped(),
		RecordedEvents: b.col.EventsRecorded(),
	}
	if len(recs) > 0 {
		t.Reserve(1, len(recs))
		t.AppendSample(&trace.Sample{Seq: 0, TriggerLoads: b.col.Loads(), Records: recs})
	}
	ds.Records = len(recs)
	if b.opts.Progress != nil {
		b.opts.Progress(1, 1)
	}
	if b.opts.StatsSink != nil {
		b.opts.StatsSink(ds)
	}
	return t, ds, nil
}
