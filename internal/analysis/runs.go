package analysis

import (
	"cmp"
	"slices"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// AddrRun is one distinct address of a sample range in sorted-run form:
// the address, how often the range accessed it, and the class of the
// range's first access to it. Runs are 16 bytes: the count shares a
// word with the 2-bit class.
type AddrRun struct {
	addr uint64
	nc   uint64 // count<<2 | first-touch class
}

func (r AddrRun) count() int            { return int(r.nc >> 2) }
func (r AddrRun) class() dataflow.Class { return dataflow.Class(r.nc & 3) }

// RunSet is a contiguous sample range's diagnostic state in sorted-run
// form: the range's scalar totals plus its distinct addresses in
// ascending order. The runs alias the buffer the set was appended to.
type RunSet struct {
	tot  diagTotals
	runs []AddrRun
}

// Counts returns the observed accesses and implied constant accesses of
// the range — the inputs of κ and ρ.
func (rs RunSet) Counts() (a int, implied uint64) { return rs.tot.a, rs.tot.implied }

// RunBuilder builds and finishes RunSets: the sorted-run kernel behind
// the execution interval tree. A leaf sorts its sample's (address,
// record) pairs into runs; a parent merges its two children's runs in
// one linear pass, the left (earlier) child's first-touch class winning
// on equal addresses. Every statistic a Diag reads from the address
// multiset is an integer count, so the runs finish to exactly the Diag
// a DiagAccum fed the same records would. A builder holds scratch
// buffers and is not safe for concurrent use.
type RunBuilder struct {
	dist    *StackDist
	pairs   []addrRec
	strided []uint64
}

// addrRec is one record of a leaf being sorted: its address and its
// record index (the tie-break that keeps first touches first).
type addrRec struct {
	addr uint64
	rec  int
}

// NewRunBuilder returns a builder measuring reuse distance at the given
// block size.
func NewRunBuilder(blockSize uint64) *RunBuilder {
	return &RunBuilder{dist: NewStackDist(blockSize)}
}

// AppendSample appends sample si of t's runs to dst and returns the
// grown buffer and the sample's RunSet.
func (rb *RunBuilder) AppendSample(dst []AddrRun, t *trace.Trace, si int) ([]AddrRun, RunSet) {
	addrs, implied, classes := t.Addrs(), t.Implied(), t.Classes()
	lo, hi := t.SampleRange(si)
	var rs RunSet
	rb.dist.Reset()
	pairs := rb.pairs[:0]
	for j := lo; j < hi; j++ {
		rs.tot.count(implied[j], dataflow.Class(classes[j]))
		d, _ := rb.dist.Access(addrs[j])
		rs.tot.reuse(d)
		pairs = append(pairs, addrRec{addrs[j], j})
	}
	slices.SortFunc(pairs, func(x, y addrRec) int {
		if c := cmp.Compare(x.addr, y.addr); c != 0 {
			return c
		}
		return cmp.Compare(x.rec, y.rec)
	})
	start := len(dst)
	for i, p := range pairs {
		if i > 0 && p.addr == pairs[i-1].addr {
			dst[len(dst)-1].nc += 4
			continue
		}
		dst = append(dst, AddrRun{addr: p.addr, nc: 4 | uint64(classes[p.rec])})
	}
	rb.pairs = pairs
	rs.runs = dst[start:]
	return dst, rs
}

// AppendMerge appends the runs of x followed by y — two adjacent sample
// ranges, x the earlier — to dst and returns the grown buffer and the
// merged RunSet. Merging with an empty RunSet copies the other.
func AppendMerge(dst []AddrRun, x, y RunSet) ([]AddrRun, RunSet) {
	rs := RunSet{tot: x.tot}
	rs.tot.merge(&y.tot)
	start := len(dst)
	a, b := x.runs, y.runs
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].addr < b[j].addr:
			dst = append(dst, a[i])
			i++
		case a[i].addr > b[j].addr:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, AddrRun{addr: a[i].addr, nc: a[i].nc + b[j].nc&^3})
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	rs.runs = dst[start:]
	return dst, rs
}

// Diag finishes the range's Diag at sample ratio rho. The strided
// first-touch addresses come out of the runs already sorted, so the
// lattice estimate needs no sort of its own.
func (rb *RunBuilder) Diag(name string, rs RunSet, rho float64) *Diag {
	var as addrSummary
	strided := rb.strided[:0]
	for _, r := range rs.runs {
		k := r.class()
		as.add(r.count(), k)
		if k == dataflow.Strided {
			strided = append(strided, r.addr)
		}
	}
	rb.strided = strided
	return rs.tot.diag(name, rho, &as, LatticePopulation(strided))
}
