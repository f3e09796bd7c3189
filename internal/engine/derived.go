package engine

import (
	"context"
	"sort"
	"sync"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// memo is a lazily-computed, concurrency-safe cell. The first getter
// computes; concurrent getters wait and reuse the value. A failed
// compute (cancellation, typically) is not cached, so a later Run can
// retry.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

func (m *memo[T]) get(compute func() (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.val, nil
	}
	v, err := compute()
	if err != nil {
		var zero T
		return zero, err
	}
	m.val, m.done = v, true
	return v, nil
}

// derived is the shared derived-data layer: every product more than one
// analysis consumes, computed at most once per Analyzer.
type derived struct {
	t    *trace.Trace
	opts *Options
	// sweepParts is the union of sweep products any requested analysis
	// needs, fixed at construction so the single memoized sweep serves
	// them all.
	sweepParts analysis.SweepParts

	stats     memo[analysis.Stats]
	funcDiags memo[[]*analysis.Diag]
	sweep     memo[*analysis.TraceSweep]
	chains    memo[*analysis.AddrChains]
	index     memo[*analysis.AddrIndex]
	zoomRoot  memo[*zoom.Node]
	itree     memo[*interval.Tree]
}

func newDerived(t *trace.Trace, opts *Options) *derived {
	d := &derived{t: t, opts: opts}
	for _, k := range opts.Analyses {
		switch k {
		case AnalyzeMRC:
			d.sweepParts |= analysis.SweepDistances
		case AnalyzeReuseIntervals:
			d.sweepParts |= analysis.SweepIntervals
		case AnalyzeConfidence:
			d.sweepParts |= analysis.SweepPresence
		}
	}
	return d
}

// Stats returns the trace-global scalar statistics (record counts, ρ,
// κ). Several analyses consume them; computing them walks every record,
// so the engine pays that walk once per Analyzer.
func (d *derived) Stats(ctx context.Context) (analysis.Stats, error) {
	return d.stats.get(func() (analysis.Stats, error) {
		if err := ctx.Err(); err != nil {
			return analysis.Stats{}, err
		}
		return analysis.StatsOf(d.t), nil
	})
}

// FuncDiags returns the per-function diagnostics, shared by
// AnalyzeFunctions and AnalyzeROI.
func (d *derived) FuncDiags(ctx context.Context) ([]*analysis.Diag, error) {
	return d.funcDiags.get(func() ([]*analysis.Diag, error) {
		st, err := d.Stats(ctx)
		if err != nil {
			return nil, err
		}
		ix, err := d.Index(ctx)
		if err != nil {
			return nil, err
		}
		return ix.FunctionDiagnostics(ctx, d.t, d.opts.BlockSize, st)
	})
}

// Sweep returns the one stack-distance sweep shared by AnalyzeMRC,
// AnalyzeReuseIntervals, and AnalyzeConfidence. Its distance and
// interval parts walk the address index's ranks.
func (d *derived) Sweep(ctx context.Context) (*analysis.TraceSweep, error) {
	return d.sweep.get(func() (*analysis.TraceSweep, error) {
		st, err := d.Stats(ctx)
		if err != nil {
			return nil, err
		}
		var ix *analysis.AddrIndex
		if d.sweepParts&(analysis.SweepDistances|analysis.SweepIntervals) != 0 {
			if ix, err = d.Index(ctx); err != nil {
				return nil, err
			}
		}
		return analysis.NewSweep(ctx, d.t, ix, d.opts.BlockSize, d.sweepParts, st)
	})
}

// Chains returns the trace's same-address occurrence chains, the index
// the trace-window histogram walks instead of per-window maps, linked
// through the address index's ranks.
func (d *derived) Chains(ctx context.Context) (*analysis.AddrChains, error) {
	return d.chains.get(func() (*analysis.AddrChains, error) {
		ix, err := d.Index(ctx)
		if err != nil {
			return nil, err
		}
		return analysis.BuildAddrChains(ctx, d.t, ix)
	})
}

// Index returns the trace's address index. Every Diag-kernel analysis
// walks its per-record ranks (functions, lines, regions, confidence,
// the interval tree and intervals, zoom leaves); the sweep, chains,
// heatmap index their per-address state by them; and
// the zoom recursion and per-leaf block counts read its sorted distinct
// addresses. It is read-only once built, so concurrent analyses share
// it.
func (d *derived) Index(ctx context.Context) (*analysis.AddrIndex, error) {
	return d.index.get(func() (*analysis.AddrIndex, error) {
		return analysis.BuildAddrIndex(ctx, d.t)
	})
}

// blocksIn counts distinct blocks of the given size among the sorted
// distinct addrs falling in [lo, hi) — equivalent to
// analysis.BlocksTouched without re-walking the trace.
func blocksIn(addrs []uint64, lo, hi, blockSize uint64) int {
	i := sort.Search(len(addrs), func(k int) bool { return addrs[k] >= lo })
	n := 0
	var prev uint64
	for ; i < len(addrs) && addrs[i] < hi; i++ {
		b := addrs[i] / blockSize
		if n == 0 || b != prev {
			n++
			prev = b
		}
	}
	return n
}

// ZoomRoot returns the location zoom tree, shared by AnalyzeZoom and
// the heatmap's default-region selection.
func (d *derived) ZoomRoot(ctx context.Context) (*zoom.Node, error) {
	return d.zoomRoot.get(func() (*zoom.Node, error) {
		cfg := d.opts.Zoom
		if cfg.Block == 0 {
			cfg.Block = d.opts.BlockSize
		}
		ix, err := d.Index(ctx)
		if err != nil {
			return nil, err
		}
		return zoom.BuildCtx(ctx, ix, cfg)
	})
}

// IntervalTree returns the execution interval tree.
func (d *derived) IntervalTree(ctx context.Context) (*interval.Tree, error) {
	return d.itree.get(func() (*interval.Tree, error) {
		ix, err := d.Index(ctx)
		if err != nil {
			return nil, err
		}
		return interval.BuildCtx(ctx, d.t, ix, d.opts.BlockSize)
	})
}
