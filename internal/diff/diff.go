// Package diff compares two engine Reports load-level analysis by
// load-level analysis. Every case study of the paper is a comparison —
// miniVite v1/v2/v3, pr vs pr-spmv, AlexNet vs ResNet (Tables IV–IX) —
// and this package serves that comparison directly instead of leaving
// the user to eyeball two Reports:
//
//   - MRC deltas aligned per capacity, with the per-report confidence
//     bounds propagated through the subtraction by interval arithmetic;
//     a delta whose propagated interval excludes zero is flagged
//     Significant.
//   - Per-function and per-line reuse and access-count shifts keyed by
//     symbol, with symbols present in only one trace reported one-sided
//     (the missing side contributes zero to every delta, so signs stay
//     antisymmetric under argument swap).
//   - Footprint-growth divergence over normalized execution time, from
//     the interval-tree breakdowns resampled onto a common axis.
//   - Zoom-tree alignment by address-region overlap: leaves of the two
//     trees pair up wherever their address ranges intersect; leaves
//     with no counterpart are reported one-sided.
//
// Deltas are always A − B. Diff(a, a) is exactly zero in every delta,
// and Diff(b, a) negates every delta of Diff(a, b).
package diff

import (
	"context"
	"sort"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// Identity is one side's trace identity, copied from its Report.
type Identity struct {
	Module  string  `json:"module"`
	Samples int     `json:"samples"`
	Records int     `json:"records"`
	Rho     float64 `json:"rho"`
	Kappa   float64 `json:"kappa"`
}

// MRCDelta is one aligned capacity of the two miss-ratio curves. Lo and
// Hi bracket Delta by interval arithmetic over the per-report bounds:
// [aLo − bHi, aHi − bLo]. Significant marks deltas whose bracket
// excludes zero — a shift larger than the sampling uncertainty.
type MRCDelta struct {
	CacheBlocks int     `json:"cache_blocks"`
	A           float64 `json:"a"`
	B           float64 `json:"b"`
	Delta       float64 `json:"delta"`
	Lo          float64 `json:"lo"`
	Hi          float64 `json:"hi"`
	Significant bool    `json:"significant"`
}

// GrowthPoint is one normalized-time interval of the footprint-growth
// comparison. T is the interval's midpoint in [0, 1); A and B are each
// trace's footprint growth ΔF (Eq. 4) over its interval covering T.
type GrowthPoint struct {
	T     float64 `json:"t"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
}

// SymbolShift is one function's (or source line's) diagnostic shift
// between the two traces. A symbol present in only one trace has OnlyIn
// set ("a" or "b") and the missing side's columns zero, so the deltas
// still read A − B.
type SymbolShift struct {
	Name   string `json:"name"`
	OnlyIn string `json:"only_in,omitempty"`

	// Ŵ: estimated executed loads attributed to the symbol.
	LoadsA float64 `json:"loads_a"`
	LoadsB float64 `json:"loads_b"`
	DLoads float64 `json:"d_loads"`
	// F: estimated footprint bytes.
	FA float64 `json:"f_a"`
	FB float64 `json:"f_b"`
	DF float64 `json:"d_f"`
	// ΔF: footprint growth per executed load.
	GrowthA float64 `json:"growth_a"`
	GrowthB float64 `json:"growth_b"`
	DGrowth float64 `json:"d_growth"`
	// D: mean intra-sample spatio-temporal reuse distance in blocks.
	DistA float64 `json:"dist_a"`
	DistB float64 `json:"dist_b"`
	DDist float64 `json:"d_dist"`
	// Strided share of the footprint, per side (no delta: a share of a
	// changed footprint is not itself a difference of like quantities).
	FstrPctA float64 `json:"fstr_pct_a"`
	FstrPctB float64 `json:"fstr_pct_b"`

	// LowConfidence marks shifts where either report's confidence pass
	// flagged the symbol as undersampled; Reason says which and why.
	LowConfidence bool   `json:"low_confidence,omitempty"`
	Reason        string `json:"reason,omitempty"`
}

// RegionShift is one aligned pair of zoom-tree leaves (or a one-sided
// leaf). Two leaves align when their address ranges overlap; a leaf may
// appear in several pairs when it straddles multiple leaves of the
// other tree.
type RegionShift struct {
	OnlyIn string `json:"only_in,omitempty"`
	LoA    uint64 `json:"lo_a,omitempty"`
	HiA    uint64 `json:"hi_a,omitempty"`
	LoB    uint64 `json:"lo_b,omitempty"`
	HiB    uint64 `json:"hi_b,omitempty"`

	AccA int `json:"acc_a"`
	AccB int `json:"acc_b"`
	DAcc int `json:"d_acc"`
	// Pct is the leaf's share of its own trace's accesses.
	PctA float64 `json:"pct_a"`
	PctB float64 `json:"pct_b"`
	DPct float64 `json:"d_pct"`
	// D from the leaf diagnostics, when present.
	DistA float64 `json:"dist_a"`
	DistB float64 `json:"dist_b"`
	DDist float64 `json:"d_dist"`
}

// DiffReport is the full comparison of two Reports. Sections for
// analyses absent from either input stay empty.
type DiffReport struct {
	A Identity `json:"a"`
	B Identity `json:"b"`

	MRC    []MRCDelta    `json:"mrc,omitempty"`
	Growth []GrowthPoint `json:"growth,omitempty"`
	// GrowthDivergence is the mean |Delta| over Growth — a scalar
	// "how differently do the footprints grow" figure.
	GrowthDivergence float64 `json:"growth_divergence"`

	Functions []SymbolShift `json:"functions,omitempty"`
	Lines     []SymbolShift `json:"lines,omitempty"`
	Regions   []RegionShift `json:"regions,omitempty"`
}

// Options configures a Diff. The zero value takes every default.
type Options struct {
	// TopK truncates the Functions and Lines sections to the K largest
	// shifts and Regions to its first K address-ordered rows
	// (0 = unlimited).
	TopK int
	// EngineOpts configures the engine runs of DiffTraces. Empty runs
	// DiffAnalyses at engine defaults. Ignored by Diff, which takes
	// already-built Reports.
	EngineOpts []engine.Option
}

// Option mutates Options; pass them to Diff or DiffTraces.
type Option func(*Options)

// WithTopK truncates the symbol and region sections to the k largest
// shifts (0 = unlimited).
func WithTopK(k int) Option {
	return func(o *Options) { o.TopK = k }
}

// WithEngineOptions sets the engine options of DiffTraces' two runs.
// Both traces run with the same options — aligned deltas only mean
// something when both sides were analysed identically.
func WithEngineOptions(opts ...engine.Option) Option {
	return func(o *Options) { o.EngineOpts = opts }
}

// DiffAnalyses is the engine suite DiffTraces runs by default: exactly
// the analyses the diff consumes.
func DiffAnalyses() []engine.Analysis {
	return []engine.Analysis{
		engine.AnalyzeFunctions, engine.AnalyzeMRC, engine.AnalyzeConfidence,
		engine.AnalyzeIntervalTree, engine.AnalyzeZoom,
	}
}

// ReportFields are the Report fields Diff reads besides the identity
// (Module … Kappa): a caller holding Reports as JSON need decode only
// these.
var ReportFields = []string{
	"FunctionDiags", "LineDiags", "MRC", "MRCBounds", "Confidence",
	"IntervalDiags", "ZoomLeaves",
}

// Diff compares two Reports. Both should come from engine runs with the
// same options; sections only present in one input are skipped. Deltas
// are A − B throughout.
func Diff(a, b *engine.Report, opts ...Option) *DiffReport {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	d := &DiffReport{
		A: Identity{Module: a.Module, Samples: a.Samples, Records: a.Records, Rho: a.Rho, Kappa: a.Kappa},
		B: Identity{Module: b.Module, Samples: b.Samples, Records: b.Records, Rho: b.Rho, Kappa: b.Kappa},
	}
	d.MRC = diffMRC(a, b)
	d.Growth, d.GrowthDivergence = diffGrowth(a, b)
	d.Functions = truncate(diffSymbols(a.FunctionDiags, b.FunctionDiags, a.Confidence, b.Confidence), o.TopK)
	d.Lines = truncate(diffSymbols(a.LineDiags, b.LineDiags, nil, nil), o.TopK)
	d.Regions = truncate(diffRegions(a, b), o.TopK)
	return d
}

// DiffTraces analyses both traces with identical options — the engine
// suites run concurrently via engine.DiffReports, each reusing its own
// memoized derived data — and diffs the two Reports.
func DiffTraces(ctx context.Context, a, b *trace.Trace, opts ...Option) (*DiffReport, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	eopts := o.EngineOpts
	if len(eopts) == 0 {
		eopts = []engine.Option{engine.WithAnalyses(DiffAnalyses()...)}
	}
	ra, rb, err := engine.DiffReports(ctx, engine.New(a, eopts...), engine.New(b, eopts...))
	if err != nil {
		return nil, err
	}
	return Diff(ra, rb, opts...), nil
}

func truncate[T any](s []T, k int) []T {
	if k > 0 && len(s) > k {
		return s[:k]
	}
	return s
}

// diffMRC aligns the two curves by capacity (in a's order, restricted
// to capacities present in both) and propagates each report's bounds
// through the subtraction.
func diffMRC(a, b *engine.Report) []MRCDelta {
	bMiss := make(map[int]float64, len(b.MRC))
	for _, p := range b.MRC {
		bMiss[p.CacheBlocks] = p.MissRatio
	}
	boundsOf := func(bs []analysis.MRCBound) map[int]analysis.MRCBound {
		m := make(map[int]analysis.MRCBound, len(bs))
		for _, bd := range bs {
			m[bd.CacheBlocks] = bd
		}
		return m
	}
	aBounds, bBounds := boundsOf(a.MRCBounds), boundsOf(b.MRCBounds)

	var out []MRCDelta
	for _, p := range a.MRC {
		bm, ok := bMiss[p.CacheBlocks]
		if !ok {
			continue
		}
		d := MRCDelta{
			CacheBlocks: p.CacheBlocks,
			A:           p.MissRatio,
			B:           bm,
			Delta:       p.MissRatio - bm,
		}
		ab, aok := aBounds[p.CacheBlocks]
		bb, bok := bBounds[p.CacheBlocks]
		if aok && bok {
			d.Lo = ab.Lo - bb.Hi
			d.Hi = ab.Hi - bb.Lo
		} else {
			// No bracket on one side: the delta is its own (degenerate)
			// interval, never significant on its own.
			d.Lo, d.Hi = d.Delta, d.Delta
		}
		d.Significant = d.Lo > 0 || d.Hi < 0
		out = append(out, d)
	}
	return out
}

// diffGrowth resamples both interval-tree breakdowns onto
// min(len(a), len(b)) normalized-time intervals and compares footprint
// growth (ΔF) point by point. Each point reads the interval covering
// its midpoint, so equal-length breakdowns compare index to index.
func diffGrowth(a, b *engine.Report) ([]GrowthPoint, float64) {
	ka, kb := len(a.IntervalDiags), len(b.IntervalDiags)
	k := min(ka, kb)
	if k == 0 {
		return nil, 0
	}
	var out []GrowthPoint
	var sumAbs float64
	for i := 0; i < k; i++ {
		t := (float64(i) + 0.5) / float64(k)
		ga := a.IntervalDiags[min(int(t*float64(ka)), ka-1)].DeltaF
		gb := b.IntervalDiags[min(int(t*float64(kb)), kb-1)].DeltaF
		p := GrowthPoint{T: t, A: ga, B: gb, Delta: ga - gb}
		if p.Delta < 0 {
			sumAbs -= p.Delta
		} else {
			sumAbs += p.Delta
		}
		out = append(out, p)
	}
	return out, sumAbs / float64(k)
}

// diffSymbols joins two diagnostic tables by symbol name. Symbols in
// only one table get one-sided rows with the missing side zero. Rows
// are ordered by shift magnitude: |ΔŴ| descending, then the larger
// side's Ŵ, then name — all symmetric in (a, b), so Diff(b, a) ranks
// the same rows in the same order.
func diffSymbols(da, db []*analysis.Diag, ca, cb []analysis.Confidence) []SymbolShift {
	conf := func(cs []analysis.Confidence) map[string]analysis.Confidence {
		if len(cs) == 0 {
			return nil
		}
		m := make(map[string]analysis.Confidence, len(cs))
		for _, c := range cs {
			m[c.Name] = c
		}
		return m
	}
	confA, confB := conf(ca), conf(cb)
	zero := &analysis.Diag{}

	shift := func(name, onlyIn string, xa, xb *analysis.Diag) SymbolShift {
		s := SymbolShift{
			Name: name, OnlyIn: onlyIn,
			LoadsA: xa.EstLoads, LoadsB: xb.EstLoads, DLoads: xa.EstLoads - xb.EstLoads,
			FA: xa.F, FB: xb.F, DF: xa.F - xb.F,
			GrowthA: xa.DeltaF, GrowthB: xb.DeltaF, DGrowth: xa.DeltaF - xb.DeltaF,
			DistA: xa.D, DistB: xb.D, DDist: xa.D - xb.D,
			FstrPctA: xa.FstrPct, FstrPctB: xb.FstrPct,
		}
		if c, ok := confA[name]; ok && c.Flagged {
			s.LowConfidence = true
			s.Reason = "a: " + c.Reason
		}
		if c, ok := confB[name]; ok && c.Flagged {
			s.LowConfidence = true
			if s.Reason != "" {
				s.Reason += "; "
			}
			s.Reason += "b: " + c.Reason
		}
		return s
	}

	byName := make(map[string]*analysis.Diag, len(db))
	for _, d := range db {
		byName[d.Name] = d
	}
	var out []SymbolShift
	seen := make(map[string]bool, len(da))
	for _, d := range da {
		seen[d.Name] = true
		if o, ok := byName[d.Name]; ok {
			out = append(out, shift(d.Name, "", d, o))
		} else {
			out = append(out, shift(d.Name, "a", d, zero))
		}
	}
	for _, d := range db {
		if !seen[d.Name] {
			out = append(out, shift(d.Name, "b", zero, d))
		}
	}

	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := abs(out[i].DLoads), abs(out[j].DLoads)
		if di != dj {
			return di > dj
		}
		mi := max(out[i].LoadsA, out[i].LoadsB)
		mj := max(out[j].LoadsA, out[j].LoadsB)
		if mi != mj {
			return mi > mj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// diffRegions aligns the two zoom trees' leaves by address overlap.
// Both leaf lists are in address order (Report.ZoomLeaves' contract),
// so one merge pass enumerates every overlapping pair; leaves that
// overlap nothing become one-sided rows.
func diffRegions(a, b *engine.Report) []RegionShift {
	la, lb := a.ZoomLeaves, b.ZoomLeaves
	if len(la) == 0 && len(lb) == 0 {
		return nil
	}
	dOf := func(n *zoom.Node) float64 {
		if n.Diag != nil {
			return n.Diag.D
		}
		return 0
	}
	// neg avoids IEEE −0 in one-sided rows (JSON-distinct from 0).
	neg := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return -v
	}
	var out []RegionShift
	matchedA := make([]bool, len(la))
	matchedB := make([]bool, len(lb))
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		x, y := la[i], lb[j]
		if max(x.Lo, y.Lo) < min(x.Hi, y.Hi) {
			matchedA[i], matchedB[j] = true, true
			out = append(out, RegionShift{
				LoA: x.Lo, HiA: x.Hi, LoB: y.Lo, HiB: y.Hi,
				AccA: x.Accesses, AccB: y.Accesses, DAcc: x.Accesses - y.Accesses,
				PctA: x.Pct, PctB: y.Pct, DPct: x.Pct - y.Pct,
				DistA: dOf(x), DistB: dOf(y), DDist: dOf(x) - dOf(y),
			})
		}
		if x.Hi <= y.Hi {
			i++
		} else {
			j++
		}
	}
	for i, n := range la {
		if !matchedA[i] {
			out = append(out, RegionShift{
				OnlyIn: "a", LoA: n.Lo, HiA: n.Hi,
				AccA: n.Accesses, DAcc: n.Accesses,
				PctA: n.Pct, DPct: n.Pct,
				DistA: dOf(n), DDist: dOf(n),
			})
		}
	}
	for j, n := range lb {
		if !matchedB[j] {
			out = append(out, RegionShift{
				OnlyIn: "b", LoB: n.Lo, HiB: n.Hi,
				AccB: n.Accesses, DAcc: -n.Accesses,
				PctB: n.Pct, DPct: neg(n.Pct),
				DistB: dOf(n), DDist: neg(dOf(n)),
			})
		}
	}

	// Order by the row's address span start — the overlap start for
	// pairs, the leaf's own start for one-sided rows — which is the
	// same key under argument swap.
	start := func(r RegionShift) uint64 {
		switch r.OnlyIn {
		case "a":
			return r.LoA
		case "b":
			return r.LoB
		default:
			return max(r.LoA, r.LoB)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := start(out[i]), start(out[j])
		if si != sj {
			return si < sj
		}
		return out[i].HiA+out[i].HiB < out[j].HiA+out[j].HiB
	})
	return out
}
