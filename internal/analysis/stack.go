// Package analysis implements MemGaze's data-reuse analyses (§IV–§V):
// spatio-temporal reuse distance and interval, captures and survivals,
// footprint and footprint growth, footprint access diagnostics
// decomposed by access pattern, multi-resolution window histograms, and
// the MAPE validation used by the paper's Fig. 6.
package analysis

import "github.com/memgaze/memgaze-go/internal/mem"

// StackDist computes spatio-temporal reuse distance (stack distance,
// Mattson et al.) and reuse interval over a stream of addresses at a
// configurable block granularity — cache lines (64 B) for cache
// analysis, OS pages (4 KiB) for working-set analysis (§V-B).
//
// The implementation is the classic O(log n) scheme: a Fenwick tree over
// access positions holds a 1 at the position of each block's most recent
// access, so the number of distinct blocks accessed strictly between two
// accesses to the same block is a prefix-sum difference.
type StackDist struct {
	blockSize uint64
	last      map[uint64]int // block -> position of most recent access (1-based)
	bit       []int          // Fenwick tree, 1-based, capacity len(bit)-1
	marks     []int8         // plain mirror of the tree's point values
	n         int            // accesses processed
}

// NewStackDist creates a tracker with the given power-of-two block size.
func NewStackDist(blockSize uint64) *StackDist {
	if blockSize == 0 {
		blockSize = 64
	}
	return &StackDist{
		blockSize: blockSize,
		last:      make(map[uint64]int),
		bit:       make([]int, 1024),
		marks:     make([]int8, 1024),
	}
}

// Reset clears the tracker for a new stream (e.g. the next sample, for
// intra-sample analysis).
func (s *StackDist) Reset() {
	clear(s.last)
	clear(s.bit)
	clear(s.marks)
	s.n = 0
}

// grow doubles the tree when position pos would not fit. A Fenwick tree
// cannot be extended in place — updates must propagate into ancestor
// nodes that would not have existed yet — so it is rebuilt from the
// plain marks mirror (amortised O(log n) per access overall).
func (s *StackDist) grow(pos int) {
	if pos < len(s.bit) {
		return
	}
	newCap := len(s.bit)
	for newCap <= pos {
		newCap *= 2
	}
	marks := make([]int8, newCap)
	copy(marks, s.marks)
	s.marks = marks
	s.bit = make([]int, newCap)
	for p := 1; p < len(s.marks); p++ {
		if s.marks[p] != 0 {
			s.addRaw(p, int(s.marks[p]))
		}
	}
}

func (s *StackDist) addRaw(pos, delta int) {
	for ; pos < len(s.bit); pos += pos & -pos {
		s.bit[pos] += delta
	}
}

func (s *StackDist) add(pos, delta int) {
	s.marks[pos] += int8(delta)
	s.addRaw(pos, delta)
}

func (s *StackDist) sum(pos int) int {
	t := 0
	for ; pos > 0; pos -= pos & -pos {
		t += s.bit[pos]
	}
	return t
}

// Access records one access and returns:
//
//	dist     — reuse distance: distinct other blocks accessed strictly
//	           between this access and the previous access to the same
//	           block; -1 on first access (infinite distance).
//	interval — reuse interval: accesses between the pair, -1 on first.
func (s *StackDist) Access(addr uint64) (dist, interval int) {
	b := mem.BlockID(mem.Addr(addr), s.blockSize)
	s.n++
	pos := s.n
	s.grow(pos)
	prev, seen := s.last[b]
	if seen {
		dist = s.sum(pos-1) - s.sum(prev)
		interval = pos - prev - 1
		s.add(prev, -1)
	} else {
		dist, interval = -1, -1
	}
	s.add(pos, 1)
	s.last[b] = pos
	return dist, interval
}

// Blocks returns the number of distinct blocks seen since the last Reset.
func (s *StackDist) Blocks() int { return len(s.last) }

// N returns the number of accesses since the last Reset.
func (s *StackDist) N() int { return s.n }

// BlockSize returns the tracker's block granularity.
func (s *StackDist) BlockSize() uint64 { return s.blockSize }

// ReuseTracker is StackDist over an address index's block ranks, with
// no map: the reuse-distance machinery the Diag kernel, the trace sweep
// and the heatmap share. Accesses are fed as runs (a sample, or a
// window's records of one sample), and distances restart with each run.
//
// Each block rank keeps the position of its latest access, counted over
// the tracker's lifetime. A run starts past every earlier position, so
// a block last seen before the run reads as unseen and the array never
// needs clearing; a Fenwick tree sized to the run holds a 1 at each
// block's latest position within it, so a reuse distance is a
// prefix-sum difference, as in StackDist.
type ReuseTracker struct {
	lo    int      // first address rank tracked
	brank []uint32 // block rank per address rank, from lo
	last  []int    // lifetime position of each block rank's latest access; 0 = never
	bit   []int32  // Fenwick tree over the run's positions, 1-based
	runN  int      // the tree's logical size: the run's capacity
	pos   int      // accesses over the tracker's lifetime
	run   int      // pos when the current run started
}

// ReuseTracker returns a tracker over the index's address ranks
// [lo, hi) at the given block size (0 means 64, as for StackDist).
func (ix *AddrIndex) ReuseTracker(lo, hi int, blockSize uint64) *ReuseTracker {
	br, blocks := blockRanks(ix.addrs[lo:hi], blockSize)
	return &ReuseTracker{lo: lo, brank: br, last: make([]int, blocks)}
}

// StartRun begins a run of at most m accesses: reuse distances restart.
func (rt *ReuseTracker) StartRun(m int) {
	if m+1 > len(rt.bit) {
		rt.bit = make([]int32, max(m+1, 2*len(rt.bit)))
	} else {
		clear(rt.bit[:m+1])
	}
	rt.runN = m
	rt.run = rt.pos
}

// Access records an access to the address of rank r and returns its
// reuse distance within the run: the distinct other blocks accessed
// since the previous access to the same block, or -1 if the block is
// new to the run.
func (rt *ReuseTracker) Access(r int) int { return rt.access(rt.brank[r-rt.lo]) }

// access is Access on a block rank.
func (rt *ReuseTracker) access(b uint32) int {
	rt.pos++
	p := rt.pos - rt.run
	bit, n := rt.bit, rt.runN
	d := -1
	if l := rt.last[b]; l > rt.run {
		// Distinct blocks whose latest access lies strictly between the
		// two accesses — one mark per block, at its latest position — is
		// prefix(p-1) - prefix(prev). The two descents share every node
		// below the point where they meet, so stop there.
		prev := l - rt.run
		d = 0
		for i, j := p-1, prev; i != j; {
			if i > j {
				d += int(bit[i])
				i -= i & -i
			} else {
				d -= int(bit[j])
				j -= j & -j
			}
		}
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
	rt.last[b] = rt.pos
	return d
}
