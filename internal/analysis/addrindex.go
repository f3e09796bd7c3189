package analysis

import (
	"context"
	"errors"
	"sort"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// AddrIndex is a trace's address index: its distinct addresses in
// ascending order, how many records access each, and every record's
// address rank — the position of its address in that order. Ranks turn
// every per-address question of a window (how often, first touched by
// which class, which block) into a flat-array lookup, so the Diag kernel
// needs no map; and the sorted distinct list is the address multiset
// the zoom recursion and per-region block counts read.
//
// The index costs 4 bytes per record (a uint32 rank covers the v3
// format's 2^32-record bound) plus 12 per distinct address. It is built
// by one LSD radix sort of (address, record) pairs and is read-only
// once built, so concurrent analyses share it.
type AddrIndex struct {
	t      *trace.Trace
	base   int      // absolute column index of ranks[0]
	ranks  []uint32 // per record of the trace's span; gap records are 0
	addrs  []uint64 // distinct addresses, ascending
	counts []uint32 // records per distinct address
}

// BuildAddrIndex indexes the records of t's samples.
func BuildAddrIndex(ctx context.Context, t *trace.Trace) (*AddrIndex, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix := &AddrIndex{t: t}
	ns := t.NumSamples()
	if ns == 0 {
		return ix, nil
	}
	base, _ := t.SampleRange(0)
	_, end := t.SampleRange(ns - 1)
	ix.base = base
	col := t.Addrs()
	keys, recs, err := recordGroups(ctx, t, base, func(j int) (uint64, bool) { return col[j], true })
	if err != nil {
		return nil, err
	}
	distinct := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			distinct++
		}
	}
	ix.ranks = make([]uint32, end-base)
	ix.addrs = make([]uint64, 0, distinct)
	ix.counts = make([]uint32, 0, distinct)
	for i, a := range keys {
		if i == 0 || a != keys[i-1] {
			ix.addrs = append(ix.addrs, a)
			ix.counts = append(ix.counts, 0)
		}
		r := len(ix.addrs) - 1
		ix.counts[r]++
		ix.ranks[recs[i]] = uint32(r)
	}
	return ix, nil
}

// Trace returns the indexed trace.
func (ix *AddrIndex) Trace() *trace.Trace { return ix.t }

// Addrs returns the trace's distinct addresses in ascending order. The
// slice is shared; callers must not modify it.
func (ix *AddrIndex) Addrs() []uint64 { return ix.addrs }

// Counts returns how many records access each distinct address, in the
// order of Addrs. The slice is shared; callers must not modify it.
func (ix *AddrIndex) Counts() []uint32 { return ix.counts }

// Rank returns the position in Addrs of record j's address; j is an
// absolute column index of a record in one of the trace's samples.
func (ix *AddrIndex) Rank(j int) int { return int(ix.ranks[j-ix.base]) }

// errForeignTrace reports a trace whose records the index does not rank.
var errForeignTrace = errors.New("analysis: trace is not the address index's trace or a sample view of it")

// indexFor returns ix if it covers t, a new index of t if ix is nil,
// and errForeignTrace otherwise.
func indexFor(ctx context.Context, t *trace.Trace, ix *AddrIndex) (*AddrIndex, error) {
	if ix == nil {
		return BuildAddrIndex(ctx, t)
	}
	if !ix.covers(t) {
		return nil, errForeignTrace
	}
	return ix, nil
}

// covers reports whether every sample of t is a sample of the indexed
// trace over the same columns: t is the indexed trace or a sample view
// of it (SampleSlice, FilterSamples), so its records have ranks. Such a
// view may borrow the per-record ranks; its distinct-address set is its
// own, so anything reading Addrs must index the view itself. A trace
// with no records has nothing to rank, so every index covers it.
func (ix *AddrIndex) covers(t *trace.Trace) bool {
	if t == ix.t {
		return true
	}
	if t.Len() == 0 {
		return true
	}
	if a, b := t.Addrs(), ix.t.Addrs(); len(a) == 0 || len(b) == 0 || &a[0] != &b[0] {
		return false
	}
	k := 0
	for si := 0; si < t.NumSamples(); si++ {
		lo, hi := t.SampleRange(si)
		if lo == hi {
			continue
		}
		for k < ix.t.NumSamples() {
			if _, khi := ix.t.SampleRange(k); khi > lo {
				break
			}
			k++
		}
		if k == ix.t.NumSamples() {
			return false
		}
		if klo, khi := ix.t.SampleRange(k); lo < klo || hi > khi {
			return false
		}
	}
	return true
}

// blockRanks maps each of the sorted distinct addrs (an index's, or a
// rank range of them) to the rank of its block at the given block size
// (0 means 64, as for StackDist): the addresses are sorted, so their
// blocks are too, and one linear pass numbers them.
func blockRanks(addrs []uint64, blockSize uint64) (br []uint32, blocks int) {
	if blockSize == 0 {
		blockSize = 64
	}
	br = make([]uint32, len(addrs))
	for r, a := range addrs {
		if r == 0 || a/blockSize != addrs[r-1]/blockSize {
			blocks++
		}
		br[r] = uint32(blocks - 1)
	}
	return br, blocks
}

// RankRange returns the rank range [lo, hi) of the distinct addresses
// falling in the address range [alo, ahi).
func (ix *AddrIndex) RankRange(alo, ahi uint64) (lo, hi int) {
	lo = sort.Search(len(ix.addrs), func(i int) bool { return ix.addrs[i] >= alo })
	hi = lo + sort.Search(len(ix.addrs)-lo, func(i int) bool { return ix.addrs[lo+i] >= ahi })
	return lo, hi
}

// radixSortPairs sorts keys ascending, permuting vals alongside, with a
// stable LSD radix sort over bytes. Bytes every key shares are skipped,
// so addresses confined to a few gigabytes cost four or five passes and
// small dense keys one. The returned slices may be the inputs or the
// scratch buffers the sort allocated.
func radixSortPairs(keys []uint64, vals []uint32) ([]uint64, []uint32) {
	if len(keys) < 2 {
		return keys, vals
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return keys, vals
	}
	tk := make([]uint64, len(keys))
	tv := make([]uint32, len(vals))
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		count = [256]int{}
		for _, k := range keys {
			count[(k>>shift)&0xff]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for i, k := range keys {
			d := (k >> shift) & 0xff
			p := count[d]
			count[d] = p + 1
			tk[p] = k
			tv[p] = vals[i]
		}
		keys, tk = tk, keys
		vals, tv = tv, vals
	}
	return keys, vals
}
