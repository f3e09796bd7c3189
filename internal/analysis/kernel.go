package analysis

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// DiagKernel computes Diags over an address index with flat arrays: the
// one kernel behind function, line, region, interval, confidence and
// interval-tree diagnostics. A window is fed as runs — the window's
// records of one sample, in record order — and finished into a Diag or
// into sorted address runs, which resets it for the next window.
//
// Per-address state (access count, first-touch class) lives in arrays
// indexed by address rank, with a list of the ranks the window touched
// so finishing and resetting cost O(touched), not O(distinct). Reuse
// distance comes from a ReuseTracker, one run per sample.
//
// The Diag is bit-identical to a DiagAccum fed the same records: every
// statistic it reads of the address multiset is an integer count, the
// distances are the same prefix-sum differences, and sorting the touched
// ranks lists the strided first-touch addresses in ascending order, as
// the lattice estimate wants. A kernel holds scratch and is not safe for
// concurrent use; kernels over one index share it read-only.
type DiagKernel struct {
	ix      *AddrIndex
	t       *trace.Trace
	implied []uint32
	classes []byte

	cnt     []uint32 // window accesses per address rank
	cls     []byte   // window first-touch class per address rank
	touched []uint32 // ranks with cnt > 0
	dist    ReuseTracker
	tot     diagTotals

	ranks   []uint32 // finish scratch: sorted strided ranks
	bitmap  []uint64 // sortRanks scratch
	strided []uint64
	gaps    []uint64
}

// Kernel returns a kernel over t, which must be the indexed trace or a
// sample view of it (SampleSlice, FilterSamples): a view borrows the
// index's per-record ranks. Reuse distance is measured at blockSize.
func (ix *AddrIndex) Kernel(t *trace.Trace, blockSize uint64) (*DiagKernel, error) {
	if !ix.covers(t) {
		return nil, errForeignTrace
	}
	br, blocks := blockRanks(ix.addrs, blockSize)
	return ix.kernel(t, br, blocks), nil
}

// kernel builds a kernel on precomputed block ranks. It inlines, so a
// caller that keeps its kernel local keeps it off the heap.
func (ix *AddrIndex) kernel(t *trace.Trace, br []uint32, blocks int) *DiagKernel {
	return &DiagKernel{
		ix: ix, t: t,
		implied: t.Implied(), classes: t.Classes(),
		cnt:  make([]uint32, len(ix.addrs)),
		cls:  make([]byte, len(ix.addrs)),
		dist: ReuseTracker{brank: br, last: make([]int, blocks)},
	}
}

// add feeds record j (an absolute column index) to the window.
func (k *DiagKernel) add(j int) {
	r := k.ix.ranks[j-k.ix.base]
	c := k.classes[j]
	k.tot.count(k.implied[j], dataflow.Class(c))
	if k.cnt[r] == 0 {
		k.touched = append(k.touched, r)
		k.cls[r] = c
	}
	k.cnt[r]++
	if d := k.dist.Access(int(r)); d >= 0 {
		k.tot.reuse(d)
	}
}

// AddSample feeds all records of sample si of the kernel's trace as one
// run.
func (k *DiagKernel) AddSample(si int) {
	lo, hi := k.t.SampleRange(si)
	k.dist.StartRun(hi - lo)
	for j := lo; j < hi; j++ {
		k.add(j)
	}
}

// addGroup feeds records given by ascending index relative to the
// index base, split into one run per sample.
func (k *DiagKernel) addGroup(recs []uint32) {
	base, t := k.ix.base, k.t
	si, hi := -1, 0
	for i := 0; i < len(recs); {
		if j := base + int(recs[i]); j >= hi {
			si, hi = sampleEnding(t, si+1, j)
		}
		e := i + 1
		for e < len(recs) && base+int(recs[e]) < hi {
			e++
		}
		k.dist.StartRun(e - i)
		for ; i < e; i++ {
			k.add(base + int(recs[i]))
		}
	}
}

// sampleEnding returns the first sample at or after from whose record
// range ends past column index j — the sample holding j, since samples
// are ordered — and that end.
func sampleEnding(t *trace.Trace, from, j int) (si, hi int) {
	if _, hi = t.SampleRange(from); hi > j {
		return from, hi
	}
	n := t.NumSamples() - from
	si = from + sort.Search(n, func(i int) bool {
		_, h := t.SampleRange(from + i)
		return h > j
	})
	_, hi = t.SampleRange(si)
	return si, hi
}

// Counts returns the window's observed accesses and implied constant
// accesses so far — the inputs of κ and ρ.
func (k *DiagKernel) Counts() (a int, implied uint64) { return k.tot.a, k.tot.implied }

// Diag finishes the window's Diag at sample ratio rho and resets the
// window.
func (k *DiagKernel) Diag(name string, rho float64) *Diag {
	var as addrSummary
	ranks := k.ranks[:0]
	for _, r := range k.touched {
		c := dataflow.Class(k.cls[r])
		as.add(int(k.cnt[r]), c)
		if c == dataflow.Strided {
			ranks = append(ranks, r)
		}
		k.cnt[r] = 0
	}
	k.bitmap = sortRanks(ranks, k.bitmap)
	strided := k.strided[:0]
	for _, r := range ranks {
		strided = append(strided, k.ix.addrs[r])
	}
	var lattice float64
	lattice, k.gaps = latticePopulation(strided, k.gaps)
	d := k.tot.diag(name, rho, &as, lattice)
	k.ranks, k.strided = ranks, strided
	k.touched = k.touched[:0]
	k.tot = diagTotals{}
	return d
}

// AppendRuns finishes the window into sorted address runs appended to
// dst, returning the grown buffer and the window's RunSet, and resets
// the window.
func (k *DiagKernel) AppendRuns(dst []AddrRun) ([]AddrRun, RunSet) {
	k.bitmap = sortRanks(k.touched, k.bitmap)
	start := len(dst)
	for _, r := range k.touched {
		dst = append(dst, AddrRun{addr: k.ix.addrs[r], nc: uint64(k.cnt[r])<<2 | uint64(k.cls[r])})
		k.cnt[r] = 0
	}
	rs := RunSet{tot: k.tot, runs: dst[start:]}
	k.touched = k.touched[:0]
	k.tot = diagTotals{}
	return dst, rs
}

// RunsDiag finishes a RunSet's Diag at sample ratio rho. The runs are
// sorted, so the strided first-touch addresses come out sorted too.
func (k *DiagKernel) RunsDiag(name string, rs RunSet, rho float64) *Diag {
	var as addrSummary
	strided := k.strided[:0]
	for _, r := range rs.runs {
		c := r.class()
		as.add(r.count(), c)
		if c == dataflow.Strided {
			strided = append(strided, r.addr)
		}
	}
	var lattice float64
	lattice, k.gaps = latticePopulation(strided, k.gaps)
	k.strided = strided
	return rs.tot.diag(name, rho, &as, lattice)
}

// sortRanks sorts distinct ranks ascending and returns the bitmap
// scratch, grown. Ranks that fill a large share of their span — at
// least one per 64 ranks, so every bitmap word holds one on average —
// are set in a presence bitmap over the span and read back in order in
// O(span/64 + n); sparser ones keep slices.Sort.
func sortRanks(ranks []uint32, bitmap []uint64) []uint64 {
	if len(ranks) < 2 {
		return bitmap
	}
	lo, hi := ranks[0], ranks[0]
	for _, r := range ranks[1:] {
		lo, hi = min(lo, r), max(hi, r)
	}
	span := int(hi-lo) + 1
	if span > 64*len(ranks) {
		slices.Sort(ranks)
		return bitmap
	}
	words := (span + 63) / 64
	if words > cap(bitmap) {
		bitmap = make([]uint64, words)
	} else {
		bitmap = bitmap[:words]
		clear(bitmap)
	}
	for _, r := range ranks {
		o := r - lo
		bitmap[o/64] |= 1 << (o % 64)
	}
	i := 0
	for w, x := range bitmap {
		for ; x != 0; x &= x - 1 {
			ranks[i] = lo + uint32(w*64+bits.TrailingZeros64(x))
			i++
		}
	}
	return bitmap
}

// recordGroups buckets the records of t's samples by key: keyOf maps an
// absolute column index to its record's key, ok false dropping the
// record. It returns the keys ascending and, alongside, each record's
// index relative to base — ascending within a key, so every group is
// in record order.
func recordGroups(ctx context.Context, t *trace.Trace, base int, keyOf func(j int) (key uint64, ok bool)) ([]uint64, []uint32, error) {
	n := t.Len()
	keys := make([]uint64, 0, n)
	recs := make([]uint32, 0, n)
	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		lo, hi := t.SampleRange(si)
		for j := lo; j < hi; j++ {
			if key, ok := keyOf(j); ok {
				keys = append(keys, key)
				recs = append(recs, uint32(j-base))
			}
		}
	}
	keys, recs = radixSortPairs(keys, recs)
	return keys, recs, nil
}

// groupBounds returns the start of each run of equal keys, plus
// len(keys) as a final sentinel.
func groupBounds(keys []uint64) []int {
	var starts []int
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			starts = append(starts, i)
		}
	}
	return append(starts, len(keys))
}
