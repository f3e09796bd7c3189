// Package interval implements MemGaze's multi-resolution execution-time
// analysis (§IV-C1, Fig. 4): an execution interval tree built bottom-up
// from samples, whose nodes carry footprint access diagnostics at
// doubling time granularities, plus the per-interval breakdowns used by
// Table VIII and Fig. 9.
package interval

import (
	"context"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Node is one execution interval: a contiguous range of samples.
// Level 0 nodes are single samples (intra-sample metrics are exact);
// higher levels aggregate pairs of children (inter-sample metrics are
// estimates, §IV-B).
type Node struct {
	Level      int
	Start, End int // sample index range [Start, End)
	StartTS    uint64
	EndTS      uint64
	Diag       *analysis.Diag
	Children   []*Node
}

// Samples returns the number of samples the node spans.
func (n *Node) Samples() int { return n.End - n.Start }

// Tree is an execution interval tree over one trace.
type Tree struct {
	Root      *Node
	Leaves    []*Node
	trace     *trace.Trace
	blockSize uint64
}

// Build constructs the tree: one leaf per sample, then parents merging
// pairs of children until a single root remains.
func Build(t *trace.Trace, blockSize uint64) *Tree {
	tr, _ := BuildCtx(context.Background(), t, blockSize)
	return tr
}

// BuildCtx is Build with cancellation: it returns ctx.Err() as soon as
// the context is done.
//
// The build is truly bottom-up: each sample's records are accumulated
// exactly once into its leaf, and every parent folds its right child's
// accumulator state into its left child's, in place
// (analysis.MergeDiagAccums), instead of rescanning the sample range —
// same diagnostics, O(records) record work instead of
// O(records · log samples). A child's Diag is finished before its
// state is folded, so reusing the left child's accumulator is safe.
func BuildCtx(ctx context.Context, t *trace.Trace, blockSize uint64) (*Tree, error) {
	tr := &Tree{trace: t, blockSize: blockSize}
	level := make([]*Node, 0, t.NumSamples())
	accs := make([]*analysis.DiagAccum, 0, t.NumSamples())
	ts := t.TS()
	for i := 0; i < t.NumSamples(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo, hi := t.SampleRange(i)
		n := &Node{Level: 0, Start: i, End: i + 1}
		if hi > lo {
			n.StartTS = ts[lo]
			n.EndTS = ts[hi-1]
		}
		ac := analysis.NewDiagAccum("interval", blockSize)
		ac.AddSampleCols(t, i)
		n.Diag = ac.Finish(tr.rhoFor(i, i+1, ac))
		level = append(level, n)
		accs = append(accs, ac)
	}
	tr.Leaves = level
	if len(level) == 0 {
		tr.Root = &Node{Diag: &analysis.Diag{Kappa: 1}}
		return tr, nil
	}
	lvl := 1
	for len(level) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := make([]*Node, 0, (len(level)+1)/2)
		nextAccs := make([]*analysis.DiagAccum, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				nextAccs = append(nextAccs, accs[i])
				continue
			}
			a, b := level[i], level[i+1]
			p := &Node{
				Level: lvl, Start: a.Start, End: b.End,
				StartTS: a.StartTS, EndTS: b.EndTS,
				Children: []*Node{a, b},
			}
			ac := analysis.MergeDiagAccums("interval", accs[i], accs[i+1])
			p.Diag = ac.Finish(tr.rhoFor(p.Start, p.End, ac))
			next = append(next, p)
			nextAccs = append(nextAccs, ac)
		}
		level = next
		accs = nextAccs
		lvl++
	}
	tr.Root = level[0]
	return tr, nil
}

// rhoFor replicates (*trace.Trace).Rho for the sub-execution
// [start, end) from accumulated counts, attributing a proportional
// share of the execution's loads — the same arithmetic diagFor's
// sub-trace would produce, without walking its records again.
func (tr *Tree) rhoFor(start, end int, ac *analysis.DiagAccum) float64 {
	a, implied := ac.Counts()
	kappa := 1.0
	if a > 0 {
		kappa = 1 + float64(implied)/float64(a)
	}
	decompressed := kappa * float64(a)
	if decompressed == 0 {
		return 1
	}
	var total uint64
	if n := tr.trace.NumSamples(); n > 0 {
		total = tr.trace.TotalLoads * uint64(end-start) / uint64(n)
	}
	executed := float64(total)
	if executed == 0 {
		executed = float64(end-start) * float64(tr.trace.Period)
	}
	if executed < decompressed {
		return 1
	}
	return executed / decompressed
}

// diagFor computes diagnostics over samples [start, end).
func (tr *Tree) diagFor(ctx context.Context, start, end int) (*analysis.Diag, error) {
	// A column-sharing view over [start, end); no record copying.
	sub := tr.trace.SampleSlice(start, end)
	// Attribute a proportional share of the execution's loads so ρ stays
	// the global sample ratio.
	sub.TotalLoads = 0
	if n := tr.trace.NumSamples(); n > 0 {
		sub.TotalLoads = tr.trace.TotalLoads * uint64(end-start) / uint64(n)
	}
	regions := []analysis.Region{{Name: "interval", Lo: 0, Hi: ^uint64(0)}}
	diags, err := analysis.RegionDiagnosticsCtx(ctx, sub, regions, tr.blockSize)
	if err != nil {
		return nil, err
	}
	return diags[0], nil
}

// ZoomHot walks from the root to a leaf, at each level descending into
// the child maximising score, and returns the path (the red descent of
// Fig. 4). A nil score uses accesses × footprint growth — "hot interval
// with poor reuse".
func (tr *Tree) ZoomHot(score func(*Node) float64) []*Node {
	if score == nil {
		score = func(n *Node) float64 { return n.Diag.EstLoads * n.Diag.DeltaF }
	}
	var path []*Node
	n := tr.Root
	for n != nil {
		path = append(path, n)
		var best *Node
		for _, c := range n.Children {
			if best == nil || score(c) > score(best) {
				best = c
			}
		}
		n = best
	}
	return path
}

// IntervalDiagnostics splits the trace's samples into k equal consecutive
// access intervals and returns a Diag per interval — the layout of the
// paper's Table VIII (gemm locality over time).
func IntervalDiagnostics(t *trace.Trace, k int, blockSize uint64) []*analysis.Diag {
	out, _ := IntervalDiagnosticsCtx(context.Background(), t, k, blockSize)
	return out
}

// IntervalDiagnosticsCtx is IntervalDiagnostics with cancellation.
func IntervalDiagnosticsCtx(ctx context.Context, t *trace.Trace, k int, blockSize uint64) ([]*analysis.Diag, error) {
	if k <= 0 || t.NumSamples() == 0 {
		return nil, nil
	}
	if k > t.NumSamples() {
		k = t.NumSamples()
	}
	tr := &Tree{trace: t, blockSize: blockSize}
	out := make([]*analysis.Diag, 0, k)
	for i := 0; i < k; i++ {
		start := i * t.NumSamples() / k
		end := (i + 1) * t.NumSamples() / k
		if end == start {
			continue
		}
		d, err := tr.diagFor(ctx, start, end)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// LocalityPoint is one bin of Fig. 9's histogram: mean locality metrics
// of intra-sample access intervals of a given size.
type LocalityPoint struct {
	W      uint64  // interval size in observed accesses
	N      int     // intervals measured
	DeltaF float64 // mean footprint growth
	D      float64 // mean spatio-temporal reuse distance
}

// IntraLocalityHistogram measures data locality of hot access intervals
// within samples (Fig. 9): each sample is cut into consecutive intervals
// of w accesses; for each interval footprint growth and mean reuse
// distance are computed exactly.
func IntraLocalityHistogram(t *trace.Trace, windows []uint64, blockSize uint64) []LocalityPoint {
	out := make([]LocalityPoint, 0, len(windows))
	for _, w := range windows {
		p := LocalityPoint{W: w}
		var sumDF, sumD float64
		var nD int
		dist := analysis.NewStackDist(blockSize)
		addrs := make(map[uint64]struct{})
		col := t.Addrs()
		for si := 0; si < t.NumSamples(); si++ {
			lo, hi := t.SampleRange(si)
			for start := lo; start+int(w) <= hi; start += int(w) {
				dist.Reset()
				clear(addrs)
				var dSum float64
				var dn int
				for i := start; i < start+int(w); i++ {
					a := col[i]
					addrs[a] = struct{}{}
					if d, _ := dist.Access(a); d >= 0 {
						dSum += float64(d)
						dn++
					}
				}
				p.N++
				sumDF += float64(len(addrs)) * 8 / float64(w)
				if dn > 0 {
					sumD += dSum / float64(dn)
					nD++
				}
			}
		}
		if p.N > 0 {
			p.DeltaF = sumDF / float64(p.N)
		}
		if nD > 0 {
			p.D = sumD / float64(nD)
		}
		out = append(out, p)
	}
	return out
}
