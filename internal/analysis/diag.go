package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Diag is a footprint access diagnostic (§V-E) for one code window
// (function) or memory region: footprint decomposed by access pattern,
// growth rates, and spatio-temporal reuse.
//
// Conventions (Table I):
//
//	A        — observed (possibly compressed) accesses in the window.
//	DecompA  — 𝒜: decompressed accesses, κ·A.
//	EstLoads — Ŵ: estimated executed loads attributed to the window, ρ·𝒜.
//	F        — estimated footprint in bytes (ρ-scaled; 8 B per address).
//	Fstr/Firr— strided/irregular components of F (by the static class of
//	           the access that first touched each address).
//	DeltaF   — footprint growth: F per executed load (Eq. 4).
//	D        — mean intra-sample spatio-temporal reuse distance in
//	           blocks; DMax is the largest observed distance.
type Diag struct {
	Name string

	A         int
	Kappa     float64
	DecompA   float64
	EstLoads  float64
	F         float64
	Fstr      float64
	Firr      float64
	FstrPct   float64 // 100·Fstr/(Fstr+Firr)
	FirrPct   float64
	DeltaF    float64
	DeltaFstr float64
	DeltaFirr float64
	AconstPct float64 // fraction of accesses to constant-sized data

	D      float64
	DMax   int
	Reuses int // pairs contributing to D

	Captures  int // addresses with reuse within samples
	Survivals int // addresses without reuse
}

// wordBytes is the footprint unit: one 8-byte word per distinct address.
const wordBytes = 8

// diagTotals are the scalar statistics of a window's Diag: everything
// but its address multiset. Two disjoint windows' totals merge by
// addition (max for dmax).
type diagTotals struct {
	a        int
	implied  uint64
	constAcc uint64
	sumD     float64
	reuses   int
	dmax     int
}

// count accumulates one record's access and compression counts.
func (dt *diagTotals) count(implied uint32, class dataflow.Class) {
	dt.a++
	dt.implied += uint64(implied)
	if class == dataflow.Constant {
		dt.constAcc++
	}
	dt.constAcc += uint64(implied)
}

// reuse accumulates one intra-sample reuse distance (d < 0: none).
func (dt *diagTotals) reuse(d int) {
	if d >= 0 {
		dt.sumD += float64(d)
		dt.reuses++
		if d > dt.dmax {
			dt.dmax = d
		}
	}
}

// merge folds b, a disjoint window's totals, into dt.
func (dt *diagTotals) merge(b *diagTotals) {
	dt.a += b.a
	dt.implied += b.implied
	dt.sumD += b.sumD
	dt.reuses += b.reuses
	dt.dmax = max(dt.dmax, b.dmax)
	dt.constAcc += b.constAcc
}

// addrSummary is what a Diag needs of a window's address multiset:
// per-class capture-recapture counts keyed by each address's
// first-touch class, and the captures/survivals split. Every field is a
// count, so the order addresses are added in does not matter.
type addrSummary struct {
	cs                  [3]CSCounts
	captures, survivals int
}

// add records one distinct address accessed n times whose first touch
// had class k.
func (s *addrSummary) add(n int, k dataflow.Class) {
	c := &s.cs[k]
	c.Unique++
	if n == 1 {
		c.Singletons++
	} else if n == 2 {
		c.Doubletons++
	}
	c.Draws += float64(n)
	if n > 1 {
		s.captures++
	} else {
		s.survivals++
	}
}

// diag computes the window's Diag at sample ratio rho from its totals,
// its address summary and the lattice population of its strided
// first-touch addresses.
func (dt *diagTotals) diag(name string, rho float64, as *addrSummary, lattice float64) *Diag {
	d := &Diag{Name: name, A: dt.a}
	if dt.a == 0 {
		d.Kappa = 1
		return d
	}
	d.Kappa = 1 + float64(dt.implied)/float64(dt.a)
	d.DecompA = d.Kappa * float64(dt.a)
	d.EstLoads = rho * d.DecompA
	// Footprint estimation per access class via capture-recapture over
	// the aggregated code window (§IV-B; see estimate.go).
	scale := rho * d.Kappa
	est := func(k dataflow.Class) float64 {
		c := as.cs[k]
		fallback := 0.0
		if k == dataflow.Strided {
			fallback = lattice
		}
		return EstimateUnique(k, c, scale*c.Draws, c.Unique*scale, fallback)
	}
	fc := est(dataflow.Constant)
	fs := est(dataflow.Strided)
	fi := est(dataflow.Irregular)
	d.F = (fc + fs + fi) * wordBytes
	d.Fstr = fs * wordBytes
	d.Firr = fi * wordBytes
	if fs+fi > 0 {
		d.FstrPct = 100 * fs / (fs + fi)
		d.FirrPct = 100 * fi / (fs + fi)
	}
	if d.EstLoads > 0 {
		d.DeltaF = d.F / d.EstLoads
		d.DeltaFstr = d.Fstr / d.EstLoads
		d.DeltaFirr = d.Firr / d.EstLoads
	}
	d.AconstPct = 100 * float64(dt.constAcc) / d.DecompA
	if dt.reuses > 0 {
		d.D = dt.sumD / float64(dt.reuses)
	}
	d.DMax = dt.dmax
	d.Reuses = dt.reuses
	d.Captures = as.captures
	d.Survivals = as.survivals
	return d
}

// DiagAccum accumulates one code or time window's diagnostics
// incrementally, sample by sample, keeping the address multiset in maps,
// and supports merging two disjoint accumulations into one. Merging is
// exact — byte-identical to feeding both record streams through a
// single accumulator — because every cross-sample statistic is either a
// sum of integer-valued terms (associative in float64 below 2^53), a
// max, or a first-touch choice where the earlier window wins, and reuse
// distances never cross sample boundaries.
//
// It is the map form for streams whose addresses no index covers:
// StreamAccum folds a streamed upload's windows with it as they decode.
// Analyses of a stored trace use the Diag kernel over the trace's
// address index (DiagKernel) instead, which yields the same Diag.
type DiagAccum struct {
	name     string
	tot      diagTotals
	firstCls map[uint64]dataflow.Class // address -> class of first touch
	counts   map[uint64]int
	dist     *StackDist
}

// NewDiagAccum returns an empty accumulation.
func NewDiagAccum(name string, blockSize uint64) *DiagAccum {
	return &DiagAccum{
		name:     name,
		firstCls: make(map[uint64]dataflow.Class),
		counts:   make(map[uint64]int),
		dist:     NewStackDist(blockSize),
	}
}

// StartSample begins a new sample: intra-sample reuse state resets.
func (da *DiagAccum) StartSample() { da.dist.Reset() }

// Add accumulates one record. Not valid on a merged accumulation.
func (da *DiagAccum) Add(r *trace.Record) {
	da.tot.count(r.Implied, r.Class)
	if _, ok := da.firstCls[r.Addr]; !ok {
		da.firstCls[r.Addr] = r.Class
	}
	da.counts[r.Addr]++
	d, _ := da.dist.Access(r.Addr)
	da.tot.reuse(d)
}

// Counts returns the observed accesses and implied constant accesses so
// far — the inputs of κ and ρ for the accumulated window.
func (da *DiagAccum) Counts() (a int, implied uint64) { return da.tot.a, da.tot.implied }

// Finish computes the window's Diag at sample ratio rho. The
// accumulation itself is left untouched and may still be merged.
func (da *DiagAccum) Finish(rho float64) *Diag {
	var as addrSummary
	var strAddrs []uint64
	for addr, n := range da.counts {
		k := da.firstCls[addr]
		as.add(n, k)
		if k == dataflow.Strided {
			strAddrs = append(strAddrs, addr)
		}
	}
	slices.Sort(strAddrs)
	return da.tot.diag(da.name, rho, &as, LatticePopulation(strAddrs))
}

// MergeDiagAccums folds y into x in place and returns x, now equivalent
// to accumulating x's samples followed by y's, under the given name.
// The cost is O(y), however large x has grown, so folding windows one
// by one stays linear. y is left unmodified. The result is finish- and
// merge-only: records cannot be added to it.
//
// First touches in x (the earlier window) take precedence, so y's
// classes only fill addresses x has not seen. The reuse stream is
// dropped: intra-sample state means nothing across a merge.
func MergeDiagAccums(name string, x, y *DiagAccum) *DiagAccum {
	x.tot.merge(&y.tot)
	x.dist = nil
	for addr, n := range y.counts {
		x.counts[addr] += n
	}
	for addr, c := range y.firstCls {
		if _, ok := x.firstCls[addr]; !ok {
			x.firstCls[addr] = c
		}
	}
	x.name = name
	return x
}

// sortByHotness orders diagnostics by descending estimated loads with a
// name tie-break, so output order is deterministic run to run.
func sortByHotness(out []*Diag) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].EstLoads != out[j].EstLoads {
			return out[i].EstLoads > out[j].EstLoads
		}
		return out[i].Name < out[j].Name
	})
}

// diagKey identifies a code window without materialising a string per
// record: the interned proc id in the high half, the line number's bits
// in the low half (zero for whole-procedure windows). Key equality is
// exactly "same proc and line", so aggregation matches the old
// string-keyed walk; the display name is rendered once per window.
type diagKey uint64

func procKey(procID uint32) diagKey { return diagKey(procID) << 32 }
func lineKey(procID uint32, line int32) diagKey {
	return diagKey(procID)<<32 | diagKey(uint32(line))
}

// keyedDiagnostics aggregates the trace into code windows keyed per
// procedure or per line (byLine) and computes each window's Diag with
// the kernel. One radix sort groups the records by key, each group in
// record order, and one kernel walks the groups in key order.
func (ix *AddrIndex) keyedDiagnostics(ctx context.Context, t *trace.Trace, blockSize uint64, st Stats, byLine bool) ([]*Diag, error) {
	if !ix.covers(t) {
		return nil, errForeignTrace
	}
	st = st.orStatsOf(t)
	procIDs, lines := t.ProcIDs(), t.Lines()
	keys, recs, err := recordGroups(ctx, t, ix.base, func(j int) (uint64, bool) {
		if byLine {
			return uint64(lineKey(procIDs[j], lines[j])), true
		}
		return uint64(procKey(procIDs[j])), true
	})
	if err != nil {
		return nil, err
	}
	bounds := groupBounds(keys)
	procs := t.Procs()
	out := make([]*Diag, len(bounds)-1)
	br, blocks := blockRanks(ix.addrs, blockSize)
	k := ix.kernel(t, br, blocks)
	for g := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k.addGroup(recs[bounds[g]:bounds[g+1]])
		key := diagKey(keys[bounds[g]])
		name := procs[uint32(key>>32)]
		if byLine {
			name = fmt.Sprintf("%s:%d", name, int32(uint32(key)))
		}
		out[g] = k.Diag(name, st.Rho)
	}
	sortByHotness(out)
	return out, nil
}

// FunctionDiagnostics computes the per-procedure code windows of t — the
// indexed trace or a sample view of it. st may carry precomputed trace
// Stats (zero means compute on demand).
func (ix *AddrIndex) FunctionDiagnostics(ctx context.Context, t *trace.Trace, blockSize uint64, st Stats) ([]*Diag, error) {
	return ix.keyedDiagnostics(ctx, t, blockSize, st, false)
}

// LineDiagnostics is FunctionDiagnostics at source-line granularity.
func (ix *AddrIndex) LineDiagnostics(ctx context.Context, t *trace.Trace, blockSize uint64, st Stats) ([]*Diag, error) {
	return ix.keyedDiagnostics(ctx, t, blockSize, st, true)
}

// FunctionDiagnostics aggregates the trace into code windows — one per
// procedure (§IV-B) — and computes a Diag for each. Reuse distance is
// intra-sample (§V-B). Results are sorted by descending estimated loads,
// i.e. hotness.
func FunctionDiagnostics(t *trace.Trace, blockSize uint64) []*Diag {
	out, _ := FunctionDiagnosticsCtx(context.Background(), t, blockSize)
	return out
}

// FunctionDiagnosticsCtx is FunctionDiagnostics with cancellation: it
// returns ctx.Err() as soon as the context is done.
func FunctionDiagnosticsCtx(ctx context.Context, t *trace.Trace, blockSize uint64) ([]*Diag, error) {
	ix, err := BuildAddrIndex(ctx, t)
	if err != nil {
		return nil, err
	}
	return ix.FunctionDiagnostics(ctx, t, blockSize, Stats{})
}

// LineDiagnostics aggregates the trace into source-line code windows
// ("proc:line" keys) — the finest attribution granularity §III-D's
// source remapping supports — and computes a Diag for each, hottest
// first.
func LineDiagnostics(t *trace.Trace, blockSize uint64) []*Diag {
	out, _ := LineDiagnosticsCtx(context.Background(), t, blockSize)
	return out
}

// LineDiagnosticsCtx is LineDiagnostics with cancellation.
func LineDiagnosticsCtx(ctx context.Context, t *trace.Trace, blockSize uint64) ([]*Diag, error) {
	ix, err := BuildAddrIndex(ctx, t)
	if err != nil {
		return nil, err
	}
	return ix.LineDiagnostics(ctx, t, blockSize, Stats{})
}

// Region is an address range [Lo, Hi) with a display name.
type Region struct {
	Name   string
	Lo, Hi uint64
}

// Contains reports whether addr falls in the region.
func (g Region) Contains(addr uint64) bool { return addr >= g.Lo && addr < g.Hi }

// RegionDiagnostics computes a Diag per region over the accesses that
// fall inside it (location windows, §IV-C2); an access inside several
// regions counts for the first. The reuse-distance stream of each
// region is restricted to that region's accesses, so D reflects the
// spatio-temporal locality of the object itself (Tables V, VII, IX).
func RegionDiagnostics(t *trace.Trace, regions []Region, blockSize uint64) []*Diag {
	out, _ := RegionDiagnosticsCtx(context.Background(), t, regions, blockSize)
	return out
}

// RegionDiagnosticsCtx is RegionDiagnostics with cancellation.
func RegionDiagnosticsCtx(ctx context.Context, t *trace.Trace, regions []Region, blockSize uint64) ([]*Diag, error) {
	ix, err := BuildAddrIndex(ctx, t)
	if err != nil {
		return nil, err
	}
	return ix.RegionDiagnostics(ctx, t, regions, blockSize)
}

// RegionDiagnostics is the package-level RegionDiagnosticsCtx over t —
// the indexed trace or a sample view of it. Region membership is a
// property of the address, so it is resolved once per distinct address
// (first region wins) and the records grouped by region with the same
// radix sort as the code windows.
func (ix *AddrIndex) RegionDiagnostics(ctx context.Context, t *trace.Trace, regions []Region, blockSize uint64) ([]*Diag, error) {
	if !ix.covers(t) {
		return nil, errForeignTrace
	}
	regionOf := ix.RegionOf(regions)
	keys, recs, err := recordGroups(ctx, t, ix.base, func(j int) (uint64, bool) {
		g := regionOf[ix.ranks[j-ix.base]]
		return uint64(g), g >= 0
	})
	if err != nil {
		return nil, err
	}
	bounds := groupBounds(keys)
	rho := t.Rho()
	k, err := ix.Kernel(t, blockSize)
	if err != nil {
		return nil, err
	}
	out := make([]*Diag, len(regions))
	g := 0
	for i, reg := range regions {
		if g+1 < len(bounds) && keys[bounds[g]] == uint64(i) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			k.addGroup(recs[bounds[g]:bounds[g+1]])
			g++
		}
		out[i] = k.Diag(reg.Name, rho)
	}
	return out, nil
}

// RegionOf resolves region membership per distinct address: entry r is
// the index of the first region containing Addrs()[r], or -1 if none
// does. A record's region is RegionOf(regions)[Rank(j)].
func (ix *AddrIndex) RegionOf(regions []Region) []int32 {
	regionOf := make([]int32, len(ix.addrs))
	for r := range regionOf {
		regionOf[r] = -1
	}
	for i, g := range regions {
		lo, hi := ix.RankRange(g.Lo, g.Hi)
		for r := lo; r < hi; r++ {
			if regionOf[r] < 0 {
				regionOf[r] = int32(i)
			}
		}
	}
	return regionOf
}

// RegionCode is the record count of one region at one source location.
type RegionCode struct {
	Region int    // index into the regions
	Proc   uint32 // interned procedure id
	Line   int32
	Count  int
}

// RegionCodes counts the records of t — the indexed trace or a sample
// view of it — per region and (procedure, line) source location, a
// record counting for the first region containing its address as in
// RegionDiagnostics. The counts come ordered by procedure id, line and
// region.
//
// No map is built. Source locations get dense ids from each
// procedure's line span over the records the regions hold, and one
// pass counts the records in a table indexed by region and location id.
// When the table would outgrow the trace — line numbers spread far
// apart — the records are grouped by location with the radix sort of
// the code windows instead, and a per-region count array splits each
// group.
func (ix *AddrIndex) RegionCodes(ctx context.Context, t *trace.Trace, regions []Region) ([]RegionCode, error) {
	if !ix.covers(t) {
		return nil, errForeignTrace
	}
	regionOf := ix.RegionOf(regions)
	procIDs, lines := t.ProcIDs(), t.Lines()
	// Each procedure's line span [lo, hi]; hi < lo when it has no
	// record in a region.
	nproc := len(t.Procs())
	lo := make([]int32, nproc)
	hi := make([]int32, nproc)
	for p := range lo {
		lo[p], hi[p] = math.MaxInt32, math.MinInt32
	}
	n := 0
	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		jlo, jhi := t.SampleRange(si)
		for j := jlo; j < jhi; j++ {
			if regionOf[ix.ranks[j-ix.base]] >= 0 {
				p, l := procIDs[j], lines[j]
				lo[p], hi[p] = min(lo[p], l), max(hi[p], l)
				n++
			}
		}
	}
	// off[p] is the id of procedure p's line lo[p].
	off := make([]int64, nproc+1)
	for p := range lo {
		off[p+1] = off[p] + max(int64(hi[p])-int64(lo[p])+1, 0)
	}
	ids, budget := off[nproc], int64(max(n, 1<<12))
	if ids > budget || ids*int64(len(regions)) > budget {
		return ix.regionCodesSorted(ctx, t, regions, regionOf)
	}
	cnt := make([]int, int(ids)*len(regions))
	for si := 0; si < t.NumSamples(); si++ {
		jlo, jhi := t.SampleRange(si)
		for j := jlo; j < jhi; j++ {
			if g := regionOf[ix.ranks[j-ix.base]]; g >= 0 {
				p := procIDs[j]
				cnt[int64(g)*ids+off[p]+int64(lines[j])-int64(lo[p])]++
			}
		}
	}
	var out []RegionCode
	for p := range lo {
		for l := int64(lo[p]); l <= int64(hi[p]); l++ {
			id := off[p] + l - int64(lo[p])
			for g := range regions {
				if c := cnt[int64(g)*ids+id]; c > 0 {
					out = append(out, RegionCode{Region: g, Proc: uint32(p), Line: int32(l), Count: c})
				}
			}
		}
	}
	return out, nil
}

// regionCodesSorted is RegionCodes grouping the records by location
// with a radix sort, for line numbers too spread out to index densely.
func (ix *AddrIndex) regionCodesSorted(ctx context.Context, t *trace.Trace, regions []Region, regionOf []int32) ([]RegionCode, error) {
	// The key flips the line's sign bit, so lines sort as signed.
	procIDs, lines := t.ProcIDs(), t.Lines()
	keys, recs, err := recordGroups(ctx, t, ix.base, func(j int) (uint64, bool) {
		return uint64(procIDs[j])<<32 | uint64(uint32(lines[j])^1<<31), regionOf[ix.ranks[j-ix.base]] >= 0
	})
	if err != nil {
		return nil, err
	}
	bounds := groupBounds(keys)
	counts := make([]int, len(regions))
	var touched []int32
	var out []RegionCode
	for g := 0; g+1 < len(bounds); g++ {
		for _, rec := range recs[bounds[g]:bounds[g+1]] {
			l := regionOf[ix.ranks[rec]]
			if counts[l] == 0 {
				touched = append(touched, l)
			}
			counts[l]++
		}
		slices.Sort(touched)
		key := keys[bounds[g]]
		for _, l := range touched {
			out = append(out, RegionCode{Region: int(l), Proc: uint32(key >> 32), Line: int32(uint32(key) ^ 1<<31), Count: counts[l]})
			counts[l] = 0
		}
		touched = touched[:0]
	}
	return out, nil
}

// BlocksTouched returns the number of distinct blocks of the given size
// accessed within [lo, hi) across the whole trace.
func BlocksTouched(t *trace.Trace, lo, hi, blockSize uint64) int {
	blocks := make(map[uint64]struct{})
	addrs := t.Addrs()
	for si := 0; si < t.NumSamples(); si++ {
		rlo, rhi := t.SampleRange(si)
		for _, a := range addrs[rlo:rhi] {
			if a >= lo && a < hi {
				blocks[a/blockSize] = struct{}{}
			}
		}
	}
	return len(blocks)
}
