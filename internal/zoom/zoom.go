// Package zoom implements MemGaze's location-based zooming (§IV-C2,
// Fig. 5): a top-down tree from the whole address space to hot memory
// sub-regions. A hot sub-region is a maximal set of contiguous pages,
// each with at least one access, whose total accesses reach a threshold
// fraction of the parent region's accesses. The contiguity rule matters:
// it keeps whole objects together so reuse distance reflects the object,
// not just its hottest blocks.
package zoom

import (
	"context"
	"sort"
	"strconv"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Config controls the recursive zoom.
type Config struct {
	// Page0 is the page size at the root level; each level divides it by
	// Shrink. Defaults: 1 MiB, shrink 8.
	Page0  uint64
	Shrink uint64
	// ThresholdPct is the minimum share of the parent's accesses for a
	// contiguous page run to become a child (default 10%).
	ThresholdPct float64
	// MinRegion stops recursion when a region is this small (default 4 KiB).
	MinRegion uint64
	// MaxLevels caps tree depth (default 8).
	MaxLevels int
	// Block is the access-block size for reuse distance (default 64 B,
	// the cache-line size, per §IV-C2).
	Block uint64
}

// DefaultConfig returns the defaults described above.
func DefaultConfig() Config {
	return Config{Page0: 1 << 20, Shrink: 8, ThresholdPct: 10, MinRegion: 4096, MaxLevels: 8, Block: 64}
}

func (c *Config) fill() {
	if c.Page0 == 0 {
		c.Page0 = 1 << 20
	}
	if c.Shrink == 0 {
		c.Shrink = 8
	}
	if c.ThresholdPct == 0 {
		c.ThresholdPct = 10
	}
	if c.MinRegion == 0 {
		c.MinRegion = 4096
	}
	if c.MaxLevels == 0 {
		c.MaxLevels = 8
	}
	if c.Block == 0 {
		c.Block = 64
	}
}

// Node is one region of the zoom tree.
type Node struct {
	Lo, Hi   uint64
	Level    int
	Accesses int
	// Pct is the region's share of all trace accesses ("hotness").
	Pct      float64
	Children []*Node
	// Diag is filled for leaves (final regions): D, blocks, A/block, and
	// code attribution come from it and Funcs.
	Diag *analysis.Diag
	// Funcs attributes the region's accesses to procedures; Lines to
	// "proc:line" source locations (§III-D's attribution, Fig. 5's
	// "code (function, line)" column).
	Funcs map[string]int
	Lines map[string]int
}

// IsLeaf reports whether the node is a final region.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Blocks returns the number of distinct access blocks in the region
// (filled for leaves).
func (n *Node) Blocks(t *trace.Trace, block uint64) int {
	return analysis.BlocksTouched(t, n.Lo, n.Hi, block)
}

// Build runs the zoom over all trace records and returns the root node,
// whose range spans the accessed address space.
func Build(t *trace.Trace, cfg Config) *Node {
	ix, _ := analysis.BuildAddrIndex(context.Background(), t)
	root, _ := BuildCtx(context.Background(), ix, cfg)
	return root
}

// BuildCtx is Build over the indexed trace's address index, with
// cancellation: it returns ctx.Err() as soon as the context is done.
// The index must be the trace's own — the recursion reads its distinct
// addresses — so a sample view needs an index of the view.
//
// The recursion walks the index's distinct addresses and their record
// counts, so it sorts nothing. The leaves' diagnostics come from the
// index's Diag kernel (analysis.AddrIndex.RegionDiagnostics), and their
// code attribution from record counts per leaf and (procedure, line)
// (analysis.AddrIndex.RegionCodes), rendering each name once.
func BuildCtx(ctx context.Context, ix *analysis.AddrIndex, cfg Config) (*Node, error) {
	cfg.fill()
	addrs, counts := ix.Addrs(), ix.Counts()
	if len(addrs) == 0 {
		return &Node{}, nil
	}
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	root := &Node{Lo: addrs[0], Hi: addrs[len(addrs)-1] + 1, Accesses: total, Pct: 100}
	if err := recurse(ctx, root, addrs, counts, cfg, total); err != nil {
		return nil, err
	}
	if err := fillLeafDiags(ctx, root, ix, cfg); err != nil {
		return nil, err
	}
	return root, nil
}

// recurse splits node's distinct addresses (ascending, with their
// access counts) into hot contiguous page runs and descends.
func recurse(ctx context.Context, n *Node, addrs []uint64, counts []uint32, cfg Config, total int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	page := cfg.Page0
	for l := 0; l < n.Level; l++ {
		page /= cfg.Shrink
	}
	if page < cfg.MinRegion || n.Level >= cfg.MaxLevels || uint64(n.Hi-n.Lo) <= cfg.MinRegion {
		return nil
	}
	// Bucket addresses by page. addrs is sorted, so runs of adjacent
	// pages are contiguous slices.
	type run struct {
		startPage, endPage uint64 // inclusive page ids
		lo, hi             int    // index range in addrs
		count              int    // accesses to the run
	}
	var runs []run
	i := 0
	for i < len(addrs) {
		p := addrs[i] / page
		j := i
		endPage := p
		count := 0
		for j < len(addrs) {
			q := addrs[j] / page
			if q != endPage && q != endPage+1 {
				break
			}
			endPage = q
			count += int(counts[j])
			j++
		}
		runs = append(runs, run{startPage: p, endPage: endPage, lo: i, hi: j, count: count})
		i = j
	}
	threshold := cfg.ThresholdPct / 100 * float64(n.Accesses)
	for _, r := range runs {
		if float64(r.count) < threshold {
			continue
		}
		child := &Node{
			Lo:       r.startPage * page,
			Hi:       (r.endPage + 1) * page,
			Level:    n.Level + 1,
			Accesses: r.count,
			Pct:      100 * float64(r.count) / float64(total),
		}
		// Clamp to the parent's range for display.
		if child.Lo < n.Lo {
			child.Lo = n.Lo
		}
		if child.Hi > n.Hi {
			child.Hi = n.Hi
		}
		if err := recurse(ctx, child, addrs[r.lo:r.hi], counts[r.lo:r.hi], cfg, total); err != nil {
			return err
		}
		n.Children = append(n.Children, child)
	}
	// If zooming found exactly one child covering everything, treat the
	// node as refined rather than looping at the same extent.
	if len(n.Children) == 1 && n.Children[0].Accesses == n.Accesses &&
		n.Children[0].Hi-n.Children[0].Lo >= n.Hi-n.Lo {
		n.Children = n.Children[0].Children
	}
	return nil
}

// fillLeafDiags computes per-leaf diagnostics (reuse distance D with the
// region-restricted access stream, captures/survivals) and code
// attribution.
func fillLeafDiags(ctx context.Context, root *Node, ix *analysis.AddrIndex, cfg Config) error {
	leaves := Leaves(root)
	if len(leaves) == 0 {
		return nil
	}
	t := ix.Trace()
	regions := make([]analysis.Region, len(leaves))
	for i, lf := range leaves {
		regions[i] = analysis.Region{Name: "", Lo: lf.Lo, Hi: lf.Hi}
	}
	diags, err := ix.RegionDiagnostics(ctx, t, regions, cfg.Block)
	if err != nil {
		return err
	}
	codes, err := ix.RegionCodes(ctx, t, regions)
	if err != nil {
		return err
	}
	for i, lf := range leaves {
		lf.Diag = diags[i]
		lf.Funcs = make(map[string]int)
		lf.Lines = make(map[string]int)
	}
	// The counts come grouped by (procedure, line), so each name is
	// rendered once.
	var proc, line string
	for i, c := range codes {
		if i == 0 || c.Proc != codes[i-1].Proc || c.Line != codes[i-1].Line {
			proc = t.ProcName(c.Proc)
			line = proc + ":" + strconv.Itoa(int(c.Line))
		}
		lf := leaves[c.Region]
		lf.Funcs[proc] += c.Count
		lf.Lines[line] += c.Count
	}
	return nil
}

// Leaves returns the final regions of the tree in address order.
func Leaves(root *Node) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			if n.Accesses > 0 {
				out = append(out, n)
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// HotLines returns the top-k "proc:line" source locations touching the
// node by access count.
func (n *Node) HotLines(k int) []string {
	return topK(n.Lines, k)
}

// HotFuncs returns the top-k procedures touching the node by access count.
func (n *Node) HotFuncs(k int) []string {
	return topK(n.Funcs, k)
}

func topK(m map[string]int, k int) []string {
	type fc struct {
		name string
		c    int
	}
	var fcs []fc
	for f, c := range m {
		fcs = append(fcs, fc{f, c})
	}
	sort.Slice(fcs, func(i, j int) bool {
		if fcs[i].c != fcs[j].c {
			return fcs[i].c > fcs[j].c
		}
		return fcs[i].name < fcs[j].name
	})
	if k > len(fcs) {
		k = len(fcs)
	}
	out := make([]string, 0, k)
	for _, f := range fcs[:k] {
		out = append(out, f.name)
	}
	return out
}

// BuildOverTime runs the location zoom independently over k consecutive
// time intervals of the trace — the combined time × location view the
// paper's Darknet study leans on ("these differing perspectives are
// critical for capturing a complete picture", §VII-B). The result is
// one leaf set per interval, so region drift over phases is visible.
func BuildOverTime(t *trace.Trace, k int, cfg Config) [][]*Node {
	if k <= 0 {
		k = 8
	}
	if k > t.NumSamples() {
		k = t.NumSamples()
	}
	var out [][]*Node
	for i := 0; i < k; i++ {
		start := i * t.NumSamples() / k
		end := (i + 1) * t.NumSamples() / k
		if end == start {
			continue
		}
		// Column-sharing view with a proportional share of the loads.
		sub := t.SampleSlice(start, end)
		sub.TotalLoads = 0
		if n := t.NumSamples(); n > 0 {
			sub.TotalLoads = t.TotalLoads * uint64(end-start) / uint64(n)
		}
		out = append(out, Leaves(Build(sub, cfg)))
	}
	return out
}
