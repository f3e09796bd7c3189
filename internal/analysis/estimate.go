package analysis

import (
	"math"
	"math/bits"
	"slices"

	"github.com/memgaze/memgaze-go/internal/dataflow"
)

// The paper reduces sampling error by aggregating samples and improving
// the estimates for captures (C, addresses with reuse) and survivals
// (S, addresses without reuse) — §IV-B. Captures and survivals are the
// recaptures and singletons of capture-recapture statistics, so the
// footprint estimator here is built on the Good–Turing coverage
// estimate:
//
//	coverage  Ĉ  = 1 − S/A            (A = observed draws)
//	population p̂ = F_obs / Ĉ
//
// and then extrapolates to the window being estimated per access class:
//
//   - Strided data is covered linearly until the object is exhausted,
//     so F̂ = min(scale·F_obs, p̂) — ramp, then saturation.
//   - Irregular (and Constant) data is drawn effectively at random, so
//     Poisson rarefaction applies: F̂ = p̂·(1 − exp(−draws/p̂)).
//
// With no recaptures at all (S == A) there is no saturation evidence
// and the only defensible estimate is linear scaling — the inter-window
// form of Eq. 3. Estimates are clamped to [F_obs, scale·F_obs].

// CSCounts summarises an observed address multiset for estimation.
type CSCounts struct {
	Unique     float64 // F_obs: distinct addresses observed
	Singletons float64 // S: observed exactly once (survivals)
	Doubletons float64 // observed exactly twice
	Draws      float64 // A: observed accesses
}

// Captures returns C: addresses with reuse (observed more than once).
func (c CSCounts) Captures() float64 { return c.Unique - c.Singletons }

// Population returns the Good–Turing population estimate, or +Inf when
// the observation shows no reuse at all.
func (c CSCounts) Population() float64 {
	if c.Draws == 0 || c.Unique == 0 {
		return 0
	}
	cov := 1 - c.Singletons/c.Draws
	if cov <= 0 {
		return math.Inf(1)
	}
	return c.Unique / cov
}

// EstimateUnique extrapolates the number of distinct addresses in a
// window of `draws` accesses for the given access class. linearCap is
// the linear-scaling bound scale × F_obs. fallbackPop, when positive,
// overrides the capture-recapture population: for Strided classes it is
// the lattice population; elsewhere it supplies the §IV-B aggregated
// estimate when the local observation shows no reuse.
func EstimateUnique(class dataflow.Class, c CSCounts, draws, linearCap, fallbackPop float64) float64 {
	if c.Unique == 0 {
		return 0
	}
	pop := c.Population()
	if class == dataflow.Strided && fallbackPop > 0 {
		// Two independent population reads for strided data: the
		// capture-recapture estimate (reliable when the lattice is
		// revisited) and the lattice-geometry estimate (reliable when
		// coverage is contiguous). Each only overestimates in the other's
		// regime, so take the smaller.
		pop = math.Min(pop, math.Max(fallbackPop, c.Unique))
	} else if math.IsInf(pop, 1) && fallbackPop > 0 {
		pop = math.Max(fallbackPop, c.Unique)
	}
	var est float64
	switch {
	case math.IsInf(pop, 1):
		est = linearCap
	case class == dataflow.Strided:
		// Strided coverage ramps linearly and then saturates.
		est = math.Min(linearCap, pop)
	default:
		// Random draws: Poisson rarefaction.
		if draws > 0 && pop > 0 {
			est = pop * (1 - math.Exp(-draws/pop))
		} else {
			est = pop
		}
	}
	if est < c.Unique {
		est = c.Unique
	}
	if linearCap > c.Unique && est > linearCap {
		est = linearCap
	}
	return est
}

// LatticePopulation estimates the total number of distinct addresses of
// a strided access set from a sample of its addresses (sorted
// ascending). Strided data lies on arithmetic lattices; because each
// trace sample contributes a contiguous run of the lattice, the median
// adjacent gap of the sampled addresses recovers the pitch, and each
// cluster (split at gaps ≫ pitch, i.e. distinct objects) contributes
// span/pitch + 1 points. This is the paper's "decomposition of
// footprint by access patterns without expensive sequence analysis"
// (§I, §V-E) made quantitative. Returns 0 when no estimate is possible.
func LatticePopulation(sorted []uint64) float64 {
	pop, _ := latticePopulation(sorted, nil)
	return pop
}

// latticePopulation is LatticePopulation collecting its gaps in a
// buffer the caller reuses: it returns the grown buffer. The pitch is
// the gaps' median — their len/2-th smallest — taken by selection, not
// by sorting them.
func latticePopulation(sorted, gaps []uint64) (float64, []uint64) {
	if len(sorted) < 4 {
		return 0, gaps
	}
	gaps = gaps[:0]
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return 1, gaps
	}
	pitch := selectKth(gaps, len(gaps)/2)
	if pitch == 0 {
		return 0, gaps
	}
	split := 64 * pitch
	if split < 4096 {
		split = 4096
	}
	var pop float64
	clusterStart := sorted[0]
	prev := sorted[0]
	for _, a := range sorted[1:] {
		if a-prev > split {
			pop += float64((prev-clusterStart)/pitch) + 1
			clusterStart = a
		}
		prev = a
	}
	pop += float64((prev-clusterStart)/pitch) + 1
	return pop, gaps
}

// selectKth returns the k-th smallest of a (0-based), reordering a: a
// quickselect on median-of-three pivots, expected linear time, that
// falls back to sorting the remaining range if its partitions stop
// shrinking. Any order statistic is one value however it is found, so
// the result equals a sorted a[k].
func selectKth(a []uint64, k int) uint64 {
	lo, hi := 0, len(a) // a[k] lies in a[lo:hi]
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 16; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			return a[k]
		}
		// Median of three as the pivot, then a three-way partition:
		// [lo, lt) < pivot, [lt, gt) == pivot, [gt, hi) > pivot.
		m := lo + (hi-lo)/2
		x, y, z := a[lo], a[m], a[hi-1]
		pivot := max(min(x, y), min(max(x, y), z))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	slices.Sort(a[lo:hi])
	return a[k]
}
