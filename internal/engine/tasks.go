package engine

import (
	"context"
	"fmt"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/heatmap"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// runAnalysis executes one analysis into its Report field. Distinct
// analyses write distinct fields, so tasks need no locking; the pool's
// WaitGroup orders every write before Run returns.
func (a *Analyzer) runAnalysis(ctx context.Context, kind Analysis, rep *Report) error {
	switch kind {
	case AnalyzeFunctions:
		diags, err := a.d.FuncDiags(ctx)
		if err != nil {
			return err
		}
		rep.FunctionDiags = diags

	case AnalyzeLines:
		st, err := a.d.Stats(ctx)
		if err != nil {
			return err
		}
		ix, err := a.d.Index(ctx)
		if err != nil {
			return err
		}
		diags, err := ix.LineDiagnostics(ctx, a.t, a.opts.BlockSize, st)
		if err != nil {
			return err
		}
		rep.LineDiags = diags

	case AnalyzeRegions:
		if len(a.opts.Regions) == 0 {
			return nil
		}
		ix, err := a.d.Index(ctx)
		if err != nil {
			return err
		}
		diags, err := ix.RegionDiagnostics(ctx, a.t, a.opts.Regions, a.opts.BlockSize)
		if err != nil {
			return err
		}
		rep.RegionDiags = diags

	case AnalyzeWindows:
		ch, err := a.d.Chains(ctx)
		if err != nil {
			return err
		}
		hist, err := ch.WindowHistogram(ctx, a.opts.Windows)
		if err != nil {
			return err
		}
		rep.Windows = hist

	case AnalyzeWorkingSet:
		ws, err := analysis.WorkingSetCtx(ctx, a.t, a.opts.WorkingSetIntervals, a.opts.PageSize)
		if err != nil {
			return err
		}
		rep.WorkingSet = ws

	case AnalyzeReuseIntervals:
		sw, err := a.d.Sweep(ctx)
		if err != nil {
			return err
		}
		rep.ReuseIntervals = sw.Intervals

	case AnalyzeMRC:
		sw, err := a.d.Sweep(ctx)
		if err != nil {
			return err
		}
		p := sw.Profile
		rep.MRCBounds = p.MissRatioBoundsAll(a.opts.Capacities)
		if p.Total > 0 {
			// The curve's point estimate charges every reuse distance
			// ≥ capacity plus cold misses — exactly the upper bound's
			// integer counts — so the sorted bounds arrays already
			// determine it without re-sorting the merged distances.
			rep.MRC = make([]analysis.MRCPoint, len(rep.MRCBounds))
			for i, b := range rep.MRCBounds {
				rep.MRC[i] = analysis.MRCPoint{CacheBlocks: b.CacheBlocks, MissRatio: b.Hi}
			}
		}

	case AnalyzeConfidence:
		sw, err := a.d.Sweep(ctx)
		if err != nil {
			return err
		}
		cfg := a.opts.Confidence
		if cfg.BlockSize == 0 {
			cfg.BlockSize = a.opts.BlockSize
		}
		ix, err := a.d.Index(ctx)
		if err != nil {
			return err
		}
		conf, err := analysis.SampleConfidenceCtx(ctx, a.t, ix, cfg, sw.SamplesOf, sw.RecordsOf)
		if err != nil {
			return err
		}
		rep.Confidence = conf

	case AnalyzeIntervalTree:
		tree, err := a.d.IntervalTree(ctx)
		if err != nil {
			return err
		}
		rep.IntervalTree = tree
		if a.opts.TimeIntervals > 0 {
			// When the k-way split falls on tree-node boundaries (k a
			// power-of-two fraction of the sample count), the tree
			// already holds every interval's diagnostics.
			rep.IntervalDiags = intervalDiagsFromTree(tree, a.t.NumSamples(), a.opts.TimeIntervals)
			if rep.IntervalDiags == nil {
				diags, err := tree.IntervalDiagnostics(ctx, a.opts.TimeIntervals)
				if err != nil {
					return err
				}
				rep.IntervalDiags = diags
			}
		}

	case AnalyzeZoom:
		root, err := a.d.ZoomRoot(ctx)
		if err != nil {
			return err
		}
		ix, err := a.d.Index(ctx)
		if err != nil {
			return err
		}
		rep.ZoomRoot = root
		rep.ZoomLeaves = zoom.Leaves(root)
		rep.ZoomLeafBlocks = make([]int, len(rep.ZoomLeaves))
		for i, lf := range rep.ZoomLeaves {
			rep.ZoomLeafBlocks[i] = blocksIn(ix.Addrs(), lf.Lo, lf.Hi, a.opts.BlockSize)
		}

	case AnalyzeHeatmap:
		lo, hi := a.opts.HeatmapLo, a.opts.HeatmapHi
		if lo == 0 && hi == 0 {
			root, err := a.d.ZoomRoot(ctx)
			if err != nil {
				return err
			}
			var hot *zoom.Node
			for _, lf := range zoom.Leaves(root) {
				if hot == nil || lf.Accesses > hot.Accesses {
					hot = lf
				}
			}
			if hot == nil {
				return nil
			}
			lo, hi = hot.Lo, hot.Hi
		}
		ix, err := a.d.Index(ctx)
		if err != nil {
			return err
		}
		h, err := heatmap.BuildCtx(ctx, ix, lo, hi, a.opts.HeatmapRows, a.opts.HeatmapCols, a.opts.BlockSize)
		if err != nil {
			return err
		}
		rep.Heatmap = h

	case AnalyzeROI:
		diags, err := a.d.FuncDiags(ctx)
		if err != nil {
			return err
		}
		rep.ROI = analysis.SuggestROIFromDiags(diags, a.opts.ROICoverPct)

	default:
		return fmt.Errorf("engine: unknown analysis %d", kind)
	}
	return nil
}

// intervalDiagsFromTree recovers the k-way interval breakdown from
// diagnostics the execution interval tree already computed. Both the
// tree and interval.IntervalDiagnostics derive a node's Diag with the
// same kernel over the same sample range, so whenever every split
// boundary i·n/k coincides with a tree node, reuse is exact. Returns
// nil when any interval has no matching node (the caller recomputes).
func intervalDiagsFromTree(tree *interval.Tree, n, k int) []*analysis.Diag {
	if n == 0 || k <= 0 || tree == nil || tree.Root == nil {
		return nil
	}
	if k > n {
		k = n
	}
	byRange := map[[2]int]*analysis.Diag{}
	var walk func(*interval.Node)
	walk = func(nd *interval.Node) {
		byRange[[2]int{nd.Start, nd.End}] = nd.Diag
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	out := make([]*analysis.Diag, 0, k)
	for i := 0; i < k; i++ {
		start, end := i*n/k, (i+1)*n/k
		if end == start {
			continue
		}
		d, ok := byRange[[2]int{start, end}]
		if !ok {
			return nil
		}
		out = append(out, d)
	}
	return out
}
