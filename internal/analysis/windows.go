package analysis

import (
	"context"
	"math"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// WindowMetrics holds the mean footprint access diagnostics for one
// nominal window size of a trace-window histogram (§VI-A, Fig. 6).
// Sizes are in decompressed accesses; footprints in bytes.
type WindowMetrics struct {
	W      uint64  // nominal window size (decompressed accesses)
	N      int     // windows measured
	F      float64 // mean estimated footprint F̂
	Fstr   float64 // mean strided footprint
	Firr   float64 // mean irregular footprint
	DeltaF float64 // mean footprint growth F̂/W
	C      float64 // mean captures (scaled)
	S      float64 // mean survivals (scaled)
}

// PowerOfTwoWindows returns {2^lo, ..., 2^hi}.
func PowerOfTwoWindows(lo, hi int) []uint64 {
	var out []uint64
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<uint(e))
	}
	return out
}

// WindowHistogram computes metric histograms over varying dynamic
// sequence lengths (the paper's trace windows). For window sizes that
// fit inside a sample, metrics are exact (intra-window form of Eq. 3);
// for larger sizes, consecutive samples are grouped to span the window
// and footprints are scaled by the local sample ratio (inter-window
// form). Full traces (Period == 0) are always measured exactly.
func WindowHistogram(t *trace.Trace, windows []uint64) []WindowMetrics {
	out, _ := WindowHistogramCtx(context.Background(), t, windows)
	return out
}

// WindowHistogramCtx is WindowHistogram with cancellation: it returns
// ctx.Err() as soon as the context is done.
func WindowHistogramCtx(ctx context.Context, t *trace.Trace, windows []uint64) ([]WindowMetrics, error) {
	ch, err := BuildAddrChains(ctx, t, nil)
	if err != nil {
		return nil, err
	}
	return ch.WindowHistogram(ctx, windows)
}

// WindowHistogram is WindowHistogramCtx over already built chains, for
// callers that hold them: the engine builds a trace's chains once.
func (ch *AddrChains) WindowHistogram(ctx context.Context, windows []uint64) ([]WindowMetrics, error) {
	t := ch.t
	globalPop := ch.Populations()
	out := make([]WindowMetrics, len(windows))
	meanW := t.MeanW() * t.Kappa() // decompressed mean sample size
	for i, w := range windows {
		var m WindowMetrics
		var err error
		if t.Period == 0 || float64(w) <= meanW {
			m, err = ch.intraWindows(ctx, w)
		} else {
			m, err = ch.interWindows(ctx, w, groupSpan(w, t.Period, t.NumSamples()), globalPop)
		}
		if err != nil {
			return nil, err
		}
		m.W = w
		if m.N > 0 && w > 0 {
			m.DeltaF = m.F / float64(w)
		}
		out[i] = m
	}
	return out, nil
}

// groupSpan returns the number of consecutive samples an inter-window
// of w accesses spans, ⌈w/period⌉, clamped to [1, samples]: a group
// never holds more samples than the trace has, and the ceiling is taken
// without the overflow w+period-1 would wrap into near 2^64.
func groupSpan(w, period uint64, samples int) int {
	k := w / period
	if w%period != 0 {
		k++
	}
	return int(max(1, min(k, uint64(max(samples, 1)))))
}

func isInf(f float64) bool { return f > 1e300 }

// AddrChains is the same-address occurrence index of a trace: for every
// record, the index of the previous and the next record with the same
// address (noPrev / noNext where there is none). Over any record range
// [a, b) of the trace's sample order, a record is the range's first
// touch of its address iff its prev is before a, and following next
// from it while below b visits every other access to that address in
// the range. So one walk over the range yields the address multiset —
// distinct addresses, per-address counts and weights, first-touch
// classes — with no map, in O(b-a).
//
// Indices are relative to the first sample's first record. Records of
// the span that belong to no sample (gaps a FilterSamples view leaves)
// point prev at themselves, so no range ever counts them. An
// AddrChains is read-only once built and safe for concurrent use.
type AddrChains struct {
	t          *trace.Trace
	ix         *AddrIndex
	base       int // absolute column index of relative index 0
	prev, next []int
	implied    []uint32
	classes    []byte
}

const (
	noPrev = -1
	noNext = math.MaxInt
)

// BuildAddrChains links t's records in one pass over the trace,
// keeping each address's latest record in an array indexed by its rank
// in ix — an address index covering t, or nil to build one.
func BuildAddrChains(ctx context.Context, t *trace.Trace, ix *AddrIndex) (*AddrChains, error) {
	ix, err := indexFor(ctx, t, ix)
	if err != nil {
		return nil, err
	}
	ch := &AddrChains{t: t, ix: ix}
	ns := t.NumSamples()
	if ns == 0 {
		return ch, nil
	}
	base, _ := t.SampleRange(0)
	_, end := t.SampleRange(ns - 1)
	ch.base = base
	ch.implied = t.Implied()[base:end]
	ch.classes = t.Classes()[base:end]
	ch.prev = make([]int, end-base)
	ch.next = make([]int, end-base)
	off := base - ix.base              // relative index to index rank slot
	last := make([]int, len(ix.addrs)) // latest relative index + 1 per rank
	covered := 0                       // relative index up to which records are accounted for
	for si := 0; si < ns; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo, hi := t.SampleRange(si)
		lo, hi = lo-base, hi-base
		for j := covered; j < lo; j++ {
			ch.prev[j] = j // not in the trace: never a first touch
		}
		for j := lo; j < hi; j++ {
			r := ix.ranks[j+off]
			ch.next[j] = noNext
			if p := last[r] - 1; p >= 0 {
				ch.prev[j] = p
				ch.next[p] = j
			} else {
				ch.prev[j] = noPrev
			}
			last[r] = j + 1
		}
		covered = max(covered, hi)
	}
	return ch, nil
}

// sampleRange returns sample si's record range in relative indices.
func (ch *AddrChains) sampleRange(si int) (lo, hi int) {
	lo, hi = ch.t.SampleRange(si)
	return lo - ch.base, hi - ch.base
}

// winStats is the chain kernel's summary of one window's records: every
// input of a flush except the strided lattice, which flush computes
// from the range only when it needs it.
type winStats struct {
	lo, hi    int     // the window's relative record range
	weight    float64 // decompressed accesses
	clsWeight [3]float64
	cs        [3]CSCounts
	c, s      float64 // captures and survivals
}

// stats walks the records of [lo, hi) once: each first touch follows
// its address's chain to count the address's accesses and weight in
// the range. Every sum is of integer-valued terms below 2^53, so it is
// exact whatever the order — the same floats a record-order
// accumulation produces.
func (ch *AddrChains) stats(lo, hi int) winStats {
	ws := winStats{lo: lo, hi: hi}
	prev, next, implied := ch.prev, ch.next, ch.implied
	for j := lo; j < hi; j++ {
		if prev[j] >= lo {
			continue
		}
		n := 1
		w := 1 + uint64(implied[j])
		for k := next[j]; k < hi; k = next[k] {
			n++
			w += 1 + uint64(implied[k])
		}
		cls := ch.classes[j]
		c := &ws.cs[cls]
		c.Unique++
		if n == 1 {
			c.Singletons++
			ws.s++
		} else {
			if n == 2 {
				c.Doubletons++
			}
			ws.c++
		}
		c.Draws += float64(n)
		ws.clsWeight[cls] += float64(w)
		ws.weight += float64(w)
	}
	return ws
}

// stridedLattice estimates the lattice population of the strided
// first-touch addresses of [lo, hi) (0 when indeterminate). It collects
// their ranks, which sort as the addresses do.
func (ch *AddrChains) stridedLattice(lo, hi int) float64 {
	off := ch.base - ch.ix.base
	var rs []uint32
	for j := lo; j < hi; j++ {
		if ch.prev[j] < lo && ch.classes[j] == byte(dataflow.Strided) {
			rs = append(rs, ch.ix.ranks[j+off])
		}
	}
	sortRanks(rs, nil)
	addrs := make([]uint64, len(rs))
	for i, r := range rs {
		addrs[i] = ch.ix.addrs[r]
	}
	return LatticePopulation(addrs)
}

// Populations aggregates all samples per class and returns the
// population estimates (0 where unusable) — the fallback saturation
// evidence for windows that are individually blind (§IV-B). The strided
// class uses the lattice estimator; others use Good–Turing.
func (ch *AddrChains) Populations() [3]float64 {
	all := ch.stats(0, len(ch.prev))
	var out [3]float64
	for k := range all.cs {
		p := all.cs[k].Population()
		if !isInf(p) {
			out[k] = p
		}
	}
	if lat := ch.stridedLattice(0, len(ch.prev)); lat > 0 {
		out[dataflow.Strided] = lat
	}
	return out
}

// flush folds the window st into the running metrics. ratio is the
// span being estimated over the span observed: 1 for exact intra
// windows; above 1, footprints are extrapolated with the
// capture-recapture estimator of estimate.go, bounded by linear scaling
// (Eq. 3).
func (ch *AddrChains) flush(m *WindowMetrics, st *winStats, ratio float64, globalPop [3]float64) {
	var f, fs, fi float64
	if ratio <= 1 {
		f = st.cs[0].Unique + st.cs[1].Unique + st.cs[2].Unique
		fs = st.cs[dataflow.Strided].Unique
		fi = st.cs[dataflow.Irregular].Unique
	} else {
		est := func(k dataflow.Class) float64 {
			c := st.cs[k]
			fallback := globalPop[k]
			if k == dataflow.Strided && fallback == 0 {
				fallback = ch.stridedLattice(st.lo, st.hi)
			}
			return EstimateUnique(k, c, ratio*st.clsWeight[k], c.Unique*ratio, fallback)
		}
		fc := est(dataflow.Constant)
		fs = est(dataflow.Strided)
		fi = est(dataflow.Irregular)
		f = fc + fs + fi
	}
	m.N++
	m.F += f * wordBytes
	m.Fstr += fs * wordBytes
	m.Firr += fi * wordBytes
	m.C += ratio * st.c
	m.S += ratio * st.s
}

func meanOf(m *WindowMetrics) {
	if m.N == 0 {
		return
	}
	n := float64(m.N)
	m.F /= n
	m.Fstr /= n
	m.Firr /= n
	m.C /= n
	m.S /= n
}

// intraWindows slices each sample into consecutive windows of w
// decompressed accesses; partial tail windows of at least w/2 are scaled
// up, smaller tails are discarded.
func (ch *AddrChains) intraWindows(ctx context.Context, w uint64) (WindowMetrics, error) {
	var m WindowMetrics
	for si := 0; si < ch.t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return WindowMetrics{}, err
		}
		lo, hi := ch.sampleRange(si)
		if lo == hi {
			continue
		}
		start, weight := lo, 0.0
		for j := lo; j < hi; j++ {
			weight += 1 + float64(ch.implied[j])
			if weight >= float64(w) {
				st := ch.stats(start, j+1)
				ch.flush(&m, &st, 1, [3]float64{})
				start, weight = j+1, 0
			}
		}
		if weight >= float64(w)/2 {
			st := ch.stats(start, hi)
			ch.flush(&m, &st, float64(w)/weight, [3]float64{})
		}
	}
	meanOf(&m)
	return m, nil
}

// interWindows groups k = ⌈w/period⌉ consecutive samples per window and
// scales observed footprints to the window span (Eq. 3, inter-window).
func (ch *AddrChains) interWindows(ctx context.Context, w uint64, k int, globalPop [3]float64) (WindowMetrics, error) {
	var m WindowMetrics
	t := ch.t
	if t.Period == 0 || t.Len() == 0 {
		return m, nil
	}
	flushGroup := func(lo, hi int) {
		// The group observed st.weight decompressed accesses standing in
		// for a window of w executed accesses.
		st := ch.stats(lo, hi)
		if st.weight == 0 {
			return
		}
		ch.flush(&m, &st, max(float64(w)/st.weight, 1), globalPop)
	}
	group, glo, ghi := -1, 0, 0
	for si := 0; si < t.NumSamples(); si++ {
		lo, hi := ch.sampleRange(si)
		if lo == hi {
			continue
		}
		if g := si / k; g != group {
			if err := ctx.Err(); err != nil {
				return WindowMetrics{}, err
			}
			if group >= 0 {
				flushGroup(glo, ghi)
			}
			group, glo = g, lo
		}
		ghi = hi
	}
	if group >= 0 {
		flushGroup(glo, ghi)
	}
	meanOf(&m)
	return m, nil
}
