// Package engine is MemGaze-Go's analyzer engine: one object that runs
// a requested set of trace analyses as a suite instead of as isolated
// function calls. The paper's tool runs its analyses the same way — a
// single pass over a collected trace feeding several views (code
// windows, trace windows, time intervals, location zoom, §IV–§V) — and
// the engine recovers that economy:
//
//   - Shared derived data. Many analyses want the same intermediate
//     products: the function diagnostics feed both the hot-function
//     table and ROI suggestion; one stack-distance sweep (analysis.NewSweep)
//     pays for the miss-ratio curve, its bounds, the reuse-interval
//     histogram, and the sample-confidence presence counts together; the
//     zoom tree feeds both the region table and the heatmap's default
//     region. The engine memoizes each product lazily, so it is computed
//     at most once per Analyzer no matter how many analyses consume it
//     or how many times Run is called.
//
//   - Cancellation. Run takes a context.Context that is threaded
//     through every long loop of every analysis; cancelling it stops
//     the whole suite promptly and Run returns ctx.Err() with no
//     goroutines left behind.
//
//   - One result type. Run returns a single Report aggregating every
//     requested output, so callers consume one value instead of wiring
//     a dozen return values together.
//
// Analyses run on a bounded worker pool (Options.Parallelism), the
// engine's one layer of parallelism: each trace walk inside an analysis
// is sequential. On a single CPU the suite still beats sequential flat
// calls because the shared derived layer removes whole trace passes.
package engine

import (
	"context"
	"time"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// Analyzer runs a set of analyses over one trace. Create it with New,
// run it with Run. An Analyzer is reusable: derived data computed by a
// successful Run is kept, so a second Run (after a cancellation, say)
// only recomputes what was lost. Run must not be called concurrently
// with itself on the same Analyzer.
type Analyzer struct {
	t    *trace.Trace
	opts Options
	d    *derived
}

// New creates an Analyzer over t with the given options applied on top
// of defaults (see Options).
func New(t *trace.Trace, opts ...Option) *Analyzer {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	a := &Analyzer{t: t, opts: o}
	a.d = newDerived(t, &a.opts)
	return a
}

// Options returns a copy of the analyzer's resolved options.
func (a *Analyzer) Options() Options { return a.opts }

// Run executes every requested analysis and returns the aggregated
// Report. It returns ctx.Err() as soon as the context is cancelled; in
// that case no partial Report is returned and all workers have exited
// by the time Run returns.
func (a *Analyzer) Run(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := a.d.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Module:  a.t.Module,
		Samples: a.t.NumSamples(),
		Records: st.Records,
		Rho:     st.Rho,
		Kappa:   st.Kappa,
	}
	seen := make(map[Analysis]bool, len(a.opts.Analyses))
	tasks := make([]func(context.Context) error, 0, len(a.opts.Analyses))
	for _, k := range a.opts.Analyses {
		if seen[k] {
			continue
		}
		seen[k] = true
		k := k
		tasks = append(tasks, func(ctx context.Context) error {
			obs := a.opts.Observer
			if obs == nil {
				return a.runAnalysis(ctx, k, rep)
			}
			start := time.Now()
			err := a.runAnalysis(ctx, k, rep)
			if err == nil {
				obs(k, time.Since(start))
			}
			return err
		})
	}
	if err := RunPool(ctx, a.opts.Parallelism, tasks); err != nil {
		return nil, err
	}
	return rep, nil
}
