package analysis

import (
	"context"
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
// distance is the StackDist scheme without its map: a Fenwick tree
// sized to the current run and a last-access position per block rank.
// Positions grow over the kernel's lifetime and a run starts past every
// earlier position, so a block last seen before the run reads as unseen
// and the array never needs clearing.
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
	brank   []uint32 // block rank per address rank
	implied []uint32
	classes []byte

	cnt     []uint32 // window accesses per address rank
	cls     []byte   // window first-touch class per address rank
	touched []uint32 // ranks with cnt > 0
	last    []int    // kernel position of each block rank's latest access
	bit     []int32  // Fenwick tree over the run's positions, 1-based
	runN    int      // the tree's logical size: the run's length
	pos     int      // records added over the kernel's lifetime
	run     int      // pos when the current run started
	tot     diagTotals

	ranks   []uint32 // finish scratch: sorted strided ranks
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
	br, blocks := ix.blockRanks(blockSize)
	return ix.kernel(t, br, blocks), nil
}

// kernel builds a kernel on precomputed block ranks. It inlines, so a
// caller that keeps its kernel local keeps it off the heap.
func (ix *AddrIndex) kernel(t *trace.Trace, br []uint32, blocks int) *DiagKernel {
	return &DiagKernel{
		ix: ix, t: t, brank: br,
		implied: t.Implied(), classes: t.Classes(),
		cnt:  make([]uint32, len(ix.addrs)),
		cls:  make([]byte, len(ix.addrs)),
		last: make([]int, blocks),
	}
}

// startRun begins a run of m records: reuse distances restart.
func (k *DiagKernel) startRun(m int) {
	if m+1 > len(k.bit) {
		k.bit = make([]int32, max(m+1, 2*len(k.bit)))
	} else {
		clear(k.bit[:m+1])
	}
	k.runN = m
	k.run = k.pos
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
	b := k.brank[r]
	k.pos++
	p := k.pos - k.run
	bit, n := k.bit, k.runN
	if l := k.last[b]; l > k.run {
		// Distinct blocks whose latest access lies strictly between the
		// two accesses — one mark per block, at its latest position — is
		// prefix(p-1) - prefix(prev). The two descents share every node
		// below the point where they meet, so stop there.
		prev := l - k.run
		d := 0
		for i, j := p-1, prev; i != j; {
			if i > j {
				d += int(bit[i])
				i -= i & -i
			} else {
				d -= int(bit[j])
				j -= j & -j
			}
		}
		k.tot.reuse(d)
		// Move the block's mark from prev to p: above the point where
		// the two ascents meet, the -1 and +1 cancel.
		for i, j := prev, p; i != j; {
			if i < j {
				if i > n {
					break
				}
				bit[i]--
				i += i & -i
			} else {
				if j > n {
					break
				}
				bit[j]++
				j += j & -j
			}
		}
	} else {
		for i := p; i <= n; i += i & -i {
			bit[i]++
		}
	}
	k.last[b] = k.pos
}

// AddSample feeds all records of sample si of the kernel's trace as one
// run.
func (k *DiagKernel) AddSample(si int) {
	lo, hi := k.t.SampleRange(si)
	k.startRun(hi - lo)
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
		k.startRun(e - i)
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
	slices.Sort(ranks)
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
	slices.Sort(k.touched)
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
