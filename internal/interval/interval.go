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
	ix        *analysis.AddrIndex
	blockSize uint64
}

// Build constructs the tree: one leaf per sample, then parents merging
// pairs of children until a single root remains.
func Build(t *trace.Trace, blockSize uint64) *Tree {
	tr, _ := BuildCtx(context.Background(), t, nil, blockSize)
	return tr
}

// BuildCtx is Build with cancellation and a shared address index: ix
// is t's index or, when t is a sample view, its parent's (nil builds
// one). It returns ctx.Err() as soon as the context is done.
//
// The build is truly bottom-up over sorted address runs: each leaf is
// one sample's Diag-kernel window, finished into runs of (address,
// count, first-touch class) by sorting the ranks it touched, and every
// parent merges its two children's runs in one linear pass
// (analysis.AppendMerge) instead of rescanning the sample range — same
// diagnostics, O(records) work per level. A level's runs live in one
// buffer; two buffers alternate between levels, since a level is
// finished before its parents' level is built.
func BuildCtx(ctx context.Context, t *trace.Trace, ix *analysis.AddrIndex, blockSize uint64) (*Tree, error) {
	if ix == nil {
		var err error
		if ix, err = analysis.BuildAddrIndex(ctx, t); err != nil {
			return nil, err
		}
	}
	tr := &Tree{trace: t, ix: ix, blockSize: blockSize}
	k, err := ix.Kernel(t, blockSize)
	if err != nil {
		return nil, err
	}
	level := make([]*Node, 0, t.NumSamples())
	sets := make([]analysis.RunSet, 0, t.NumSamples())
	buf := make([]analysis.AddrRun, 0, t.Len())
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
		k.AddSample(i)
		var rs analysis.RunSet
		buf, rs = k.AppendRuns(buf)
		a, implied := rs.Counts()
		n.Diag = k.RunsDiag("interval", rs, tr.rhoFor(i, i+1, a, implied))
		level = append(level, n)
		sets = append(sets, rs)
	}
	tr.Leaves = level
	if len(level) == 0 {
		tr.Root = &Node{Diag: &analysis.Diag{Kappa: 1}}
		return tr, nil
	}
	spare := make([]analysis.AddrRun, 0, t.Len())
	lvl := 1
	for len(level) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := make([]*Node, 0, (len(level)+1)/2)
		nextSets := make([]analysis.RunSet, 0, (len(level)+1)/2)
		nextBuf := spare[:0]
		for i := 0; i < len(level); i += 2 {
			var rs analysis.RunSet
			if i+1 == len(level) {
				// The odd node carries up unchanged; its runs move to
				// the next level's buffer, since this one is reused.
				nextBuf, rs = analysis.AppendMerge(nextBuf, sets[i], analysis.RunSet{})
				next = append(next, level[i])
				nextSets = append(nextSets, rs)
				continue
			}
			l, r := level[i], level[i+1]
			p := &Node{
				Level: lvl, Start: l.Start, End: r.End,
				StartTS: l.StartTS, EndTS: r.EndTS,
				Children: []*Node{l, r},
			}
			nextBuf, rs = analysis.AppendMerge(nextBuf, sets[i], sets[i+1])
			a, implied := rs.Counts()
			p.Diag = k.RunsDiag("interval", rs, tr.rhoFor(p.Start, p.End, a, implied))
			next = append(next, p)
			nextSets = append(nextSets, rs)
		}
		level, sets = next, nextSets
		spare, buf = buf, nextBuf
		lvl++
	}
	tr.Root = level[0]
	return tr, nil
}

// rhoFor replicates (*trace.Trace).Rho for the sub-execution
// [start, end) from its observed and implied access counts, attributing a
// proportional share of the execution's loads — the arithmetic a
// SampleSlice view of the range with its TotalLoads rescaled would
// produce, without walking its records again.
func (tr *Tree) rhoFor(start, end, a int, implied uint64) float64 {
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
	ix, err := analysis.BuildAddrIndex(ctx, t)
	if err != nil {
		return nil, err
	}
	tr := &Tree{trace: t, ix: ix, blockSize: blockSize}
	return tr.IntervalDiagnostics(ctx, k)
}

// IntervalDiagnostics is IntervalDiagnosticsCtx over the tree's trace,
// computed with the address index the tree was built on: each interval
// is one Diag-kernel window, one run per sample.
func (tr *Tree) IntervalDiagnostics(ctx context.Context, k int) ([]*analysis.Diag, error) {
	n := tr.trace.NumSamples()
	if k <= 0 || n == 0 {
		return nil, nil
	}
	k = min(k, n)
	kern, err := tr.ix.Kernel(tr.trace, tr.blockSize)
	if err != nil {
		return nil, err
	}
	out := make([]*analysis.Diag, 0, k)
	for i := 0; i < k; i++ {
		start, end := i*n/k, (i+1)*n/k
		if end == start {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = append(out, tr.windowDiag(kern, start, end))
	}
	return out, nil
}

// windowDiag feeds samples [start, end) to the kernel as one window and
// finishes it at the sub-execution's ρ.
func (tr *Tree) windowDiag(kern *analysis.DiagKernel, start, end int) *analysis.Diag {
	for si := start; si < end; si++ {
		kern.AddSample(si)
	}
	a, implied := kern.Counts()
	return kern.Diag("interval", tr.rhoFor(start, end, a, implied))
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
