package analysis

import "github.com/memgaze/memgaze-go/internal/dataflow"

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
//
// Runs are the execution interval tree's form: a leaf is one sample's
// kernel window finished into runs (DiagKernel.AppendRuns); a parent
// merges its two children's runs in one linear pass (AppendMerge), the
// left (earlier) child's first-touch class winning on equal addresses.
// Every statistic a Diag reads from the address multiset is an integer
// count, so the runs finish (DiagKernel.RunsDiag) to exactly the Diag a
// DiagAccum fed the same records would.
type RunSet struct {
	tot  diagTotals
	runs []AddrRun
}

// Counts returns the observed accesses and implied constant accesses of
// the range — the inputs of κ and ρ.
func (rs RunSet) Counts() (a int, implied uint64) { return rs.tot.a, rs.tot.implied }

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
