package analysis

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/pool"
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

// accumulator builds a Diag from a record stream, keeping the address
// multiset in maps — the form keyed code windows need, since their
// records interleave.
type accumulator struct {
	name     string
	tot      diagTotals
	firstCls map[uint64]dataflow.Class // address -> class of first touch
	counts   map[uint64]int
	dist     *StackDist
}

func newAccumulator(name string, blockSize uint64) *accumulator {
	return &accumulator{
		name:     name,
		firstCls: make(map[uint64]dataflow.Class),
		counts:   make(map[uint64]int),
		dist:     NewStackDist(blockSize),
	}
}

// startSample resets intra-sample state (the reuse-distance stream).
func (ac *accumulator) startSample() { ac.dist.Reset() }

func (ac *accumulator) add(r *trace.Record) { ac.addVals(r.Addr, r.Implied, r.Class) }

// addVals is the column-direct form of add: the walks feed it straight
// from the addrs/implied/classes columns.
func (ac *accumulator) addVals(addr uint64, implied uint32, class dataflow.Class) {
	ac.tot.count(implied, class)
	if _, ok := ac.firstCls[addr]; !ok {
		ac.firstCls[addr] = class
	}
	ac.counts[addr]++
	d, _ := ac.dist.Access(addr)
	ac.tot.reuse(d)
}

func (ac *accumulator) finish(rho float64) *Diag {
	var as addrSummary
	var strAddrs []uint64
	for addr, n := range ac.counts {
		k := ac.firstCls[addr]
		as.add(n, k)
		if k == dataflow.Strided {
			strAddrs = append(strAddrs, addr)
		}
	}
	slices.Sort(strAddrs)
	return ac.tot.diag(ac.name, rho, &as, LatticePopulation(strAddrs))
}

// DiagAccum accumulates one code or time window's diagnostics
// incrementally, sample by sample, and supports merging two disjoint
// accumulations into one. Merging is exact — byte-identical to feeding
// both record streams through a single accumulator — because every
// cross-sample statistic is either a sum of integer-valued terms
// (associative in float64 below 2^53), a max, or a first-touch choice
// where the earlier window wins, and reuse distances never cross sample
// boundaries. StreamAccum builds on this to fold a streamed upload's
// windows in capture order; the execution interval tree applies the
// same merge rules to sorted address runs instead (RunBuilder).
type DiagAccum struct {
	ac *accumulator
}

// NewDiagAccum returns an empty accumulation.
func NewDiagAccum(name string, blockSize uint64) *DiagAccum {
	return &DiagAccum{ac: newAccumulator(name, blockSize)}
}

// StartSample begins a new sample: intra-sample reuse state resets.
func (da *DiagAccum) StartSample() { da.ac.startSample() }

// Add accumulates one record. Not valid on a merged accumulation.
func (da *DiagAccum) Add(r *trace.Record) { da.ac.add(r) }

// Counts returns the observed accesses and implied constant accesses so
// far — the inputs of κ and ρ for the accumulated window.
func (da *DiagAccum) Counts() (a int, implied uint64) { return da.ac.tot.a, da.ac.tot.implied }

// Finish computes the window's Diag at sample ratio rho. The
// accumulation itself is left untouched and may still be merged.
func (da *DiagAccum) Finish(rho float64) *Diag { return da.ac.finish(rho) }

// MergeDiagAccums folds y into x in place and returns x, now equivalent
// to accumulating x's samples followed by y's, under the given name.
// The cost is O(y), however large x has grown, so folding windows one
// by one stays linear. y is left unmodified. The result is finish- and
// merge-only: records cannot be added to it.
func MergeDiagAccums(name string, x, y *DiagAccum) *DiagAccum {
	x.ac.absorb(y.ac)
	x.ac.name = name
	return x
}

// absorb folds b, the later of two disjoint accumulations, into ac.
// First touches in ac (the earlier window) take precedence, so b's
// classes only fill addresses ac has not seen. The reuse stream is
// dropped: intra-sample state means nothing across a merge.
func (ac *accumulator) absorb(b *accumulator) {
	ac.tot.merge(&b.tot)
	ac.dist = nil
	for addr, n := range b.counts {
		ac.counts[addr] += n
	}
	for addr, c := range b.firstCls {
		if _, ok := ac.firstCls[addr]; !ok {
			ac.firstCls[addr] = c
		}
	}
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

// keyedDiagAccs walks samples [lo, hi), accumulating per-key state —
// the sequential inner loop of keyedDiagnostics, reused per shard.
// byLine selects line-granularity keys; otherwise records aggregate per
// procedure.
func keyedDiagAccs(ctx context.Context, t *trace.Trace, blockSize uint64, lo, hi int, byLine bool, name func(diagKey) string) (map[diagKey]*accumulator, error) {
	addrs, implied, classes := t.Addrs(), t.Implied(), t.Classes()
	procIDs, lines := t.ProcIDs(), t.Lines()
	accs := make(map[diagKey]*accumulator)
	for si := lo; si < hi; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rlo, rhi := t.SampleRange(si)
		for _, ac := range accs {
			ac.startSample()
		}
		for j := rlo; j < rhi; j++ {
			k := procKey(procIDs[j])
			if byLine {
				k = lineKey(procIDs[j], lines[j])
			}
			ac, ok := accs[k]
			if !ok {
				ac = newAccumulator(name(k), blockSize)
				accs[k] = ac
			}
			ac.addVals(addrs[j], implied[j], dataflow.Class(classes[j]))
		}
	}
	return accs, nil
}

// keyedDiagnosticsSharded aggregates the trace into code windows keyed
// per procedure or per line, over contiguous sample shards walked
// concurrently. Per-key accumulations merge exactly (see DiagAccum),
// with earlier shards taking first-touch precedence, so the result is
// byte-identical to the sequential walk at every shard count.
func keyedDiagnosticsSharded(ctx context.Context, t *trace.Trace, blockSize uint64, shards int, st Stats, byLine bool) ([]*Diag, error) {
	st = st.orStatsOf(t)
	shards = resolveShards(shards, t.NumSamples())
	procs := t.Procs()
	name := func(k diagKey) string {
		if byLine {
			return fmt.Sprintf("%s:%d", procs[uint32(k>>32)], int32(uint32(k)))
		}
		return procs[uint32(k>>32)]
	}

	var accs map[diagKey]*accumulator
	if shards <= 1 {
		var err error
		accs, err = keyedDiagAccs(ctx, t, blockSize, 0, t.NumSamples(), byLine, name)
		if err != nil {
			return nil, err
		}
	} else {
		res := make([]map[diagKey]*accumulator, shards)
		tasks := make([]func(context.Context) error, shards)
		for i := range tasks {
			lo, hi := shardRange(t.NumSamples(), shards, i)
			tasks[i] = func(ctx context.Context) error {
				m, err := keyedDiagAccs(ctx, t, blockSize, lo, hi, byLine, name)
				if err != nil {
					return err
				}
				res[i] = m
				return nil
			}
		}
		if err := pool.Run(ctx, shards, tasks); err != nil {
			return nil, err
		}
		accs = res[0]
		for _, m := range res[1:] {
			for k, ac := range m {
				if prev, ok := accs[k]; ok {
					prev.absorb(ac)
				} else {
					accs[k] = ac
				}
			}
		}
	}

	out := make([]*Diag, 0, len(accs))
	for _, ac := range accs {
		out = append(out, ac.finish(st.Rho))
	}
	sortByHotness(out)
	return out, nil
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
	return keyedDiagnosticsSharded(ctx, t, blockSize, 1, Stats{}, false)
}

// FunctionDiagnosticsSharded is FunctionDiagnosticsCtx computed over
// contiguous sample shards walked concurrently, byte-identical to the
// sequential result at every shard count. shards <= 0 selects
// GOMAXPROCS; shards == 1 is the sequential path. st may carry
// precomputed trace Stats (zero means compute on demand).
func FunctionDiagnosticsSharded(ctx context.Context, t *trace.Trace, blockSize uint64, shards int, st Stats) ([]*Diag, error) {
	return keyedDiagnosticsSharded(ctx, t, blockSize, shards, st, false)
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
	return keyedDiagnosticsSharded(ctx, t, blockSize, 1, Stats{}, true)
}

// LineDiagnosticsSharded is LineDiagnosticsCtx over concurrent sample
// shards; see FunctionDiagnosticsSharded for the contract.
func LineDiagnosticsSharded(ctx context.Context, t *trace.Trace, blockSize uint64, shards int, st Stats) ([]*Diag, error) {
	return keyedDiagnosticsSharded(ctx, t, blockSize, shards, st, true)
}

// Region is an address range [Lo, Hi) with a display name.
type Region struct {
	Name   string
	Lo, Hi uint64
}

// Contains reports whether addr falls in the region.
func (g Region) Contains(addr uint64) bool { return addr >= g.Lo && addr < g.Hi }

// RegionDiagnostics computes a Diag per region over the accesses that
// fall inside it (location windows, §IV-C2). The reuse-distance stream
// of each region is restricted to that region's accesses, so D reflects
// the spatio-temporal locality of the object itself (Tables V, VII, IX).
func RegionDiagnostics(t *trace.Trace, regions []Region, blockSize uint64) []*Diag {
	out, _ := RegionDiagnosticsCtx(context.Background(), t, regions, blockSize)
	return out
}

// RegionDiagnosticsCtx is RegionDiagnostics with cancellation.
func RegionDiagnosticsCtx(ctx context.Context, t *trace.Trace, regions []Region, blockSize uint64) ([]*Diag, error) {
	rho := t.Rho()
	accs := make([]*accumulator, len(regions))
	for i, g := range regions {
		accs[i] = newAccumulator(g.Name, blockSize)
	}
	addrs, implied, classes := t.Addrs(), t.Implied(), t.Classes()
	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo, hi := t.SampleRange(si)
		for _, ac := range accs {
			ac.startSample()
		}
		for i := lo; i < hi; i++ {
			for j := range regions {
				if regions[j].Contains(addrs[i]) {
					accs[j].addVals(addrs[i], implied[i], dataflow.Class(classes[i]))
					break
				}
			}
		}
	}
	out := make([]*Diag, len(accs))
	for i, ac := range accs {
		out[i] = ac.finish(rho)
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
