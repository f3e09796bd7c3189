package analysis

import (
	"context"
	"sort"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// Miss-ratio curves from sampled traces. The paper's conclusion points
// at hardware/software co-design: "Using models of different memory
// systems, we can obtain insight into memory system performance ...
// with respect to data location, data movement, and workload accesses."
// Stack-distance theory supplies the model: for a fully-associative LRU
// cache of C blocks, an access misses iff its reuse distance is ≥ C (or
// it is a cold first touch), so the distribution of sampled reuse
// distances is a miss-ratio curve for every capacity at once — the
// MRC construction of the SHARDS / StatStack line of work the paper
// cites, driven here by MemGaze's intra-sample distances.

// Note the structural blind band: intra-sample windows resolve
// distances up to roughly the window size, and inter-sample estimates
// start at the footprint of one period's gap — capacities between those
// two images of §IV-A's R2 blind spot are bounded rather than resolved
// (the MRC is exact below the band, bounded inside it, and accurate
// again above it). MissRatioBounds exposes the bracket.

// MRCPoint is one capacity of the miss-ratio curve.
type MRCPoint struct {
	CacheBlocks int     // capacity in blocks
	MissRatio   float64 // predicted misses per access
}

// MRCBound brackets the miss ratio at one capacity (see
// MissRatioBounds).
type MRCBound struct {
	CacheBlocks int
	Lo, Hi      float64
}

// ReuseProfile is the reuse-distance distribution of one trace at one
// block granularity, split into exactly-measured intra-sample distances
// and estimated inter-sample ones, plus the count of true cold
// accesses. Collect it once with NewSweep (SweepDistances) and evaluate
// miss ratios at any number of capacities without re-walking the trace.
type ReuseProfile struct {
	Intra     []int // exact distances from intra-sample windows (R1)
	Estimated []int // StatStack-style estimates for cross-sample reuses (R3)
	Cold      int   // true cold misses
	Total     int   // accesses profiled
}

// MissRatioCurve evaluates the profile at each capacity (in blocks).
func (p *ReuseProfile) MissRatioCurve(capacities []int) []MRCPoint {
	if p.Total == 0 {
		return nil
	}
	dists := append(append([]int{}, p.Intra...), p.Estimated...)
	sort.Ints(dists)
	out := make([]MRCPoint, 0, len(capacities))
	for _, c := range capacities {
		idx := sort.SearchInts(dists, c)
		farReuses := len(dists) - idx
		out = append(out, MRCPoint{
			CacheBlocks: c,
			MissRatio:   float64(farReuses+p.Cold) / float64(p.Total),
		})
	}
	return out
}

// MissRatioBounds returns lower and upper miss-ratio estimates at one
// capacity. The lower bound counts only exactly-measured (intra-sample)
// distances plus true cold misses; the upper bound additionally charges
// every estimated inter-sample reuse whose estimate reaches the
// capacity. Below the sample window's footprint the two converge; in
// the structural blind band they bracket it honestly.
func (p *ReuseProfile) MissRatioBounds(capacity int) (lo, hi float64) {
	b := p.MissRatioBoundsAll([]int{capacity})[0]
	return b.Lo, b.Hi
}

// MissRatioBoundsAll brackets the miss ratio at every capacity with one
// sort of the profile instead of one per capacity. It sorts copies, so
// concurrent readers of the profile are safe.
func (p *ReuseProfile) MissRatioBoundsAll(capacities []int) []MRCBound {
	out := make([]MRCBound, 0, len(capacities))
	if p.Total == 0 {
		for _, c := range capacities {
			out = append(out, MRCBound{CacheBlocks: c})
		}
		return out
	}
	intra := append([]int{}, p.Intra...)
	estimated := append([]int{}, p.Estimated...)
	sort.Ints(intra)
	sort.Ints(estimated)
	for _, c := range capacities {
		farIntra := len(intra) - sort.SearchInts(intra, c)
		farEst := len(estimated) - sort.SearchInts(estimated, c)
		out = append(out, MRCBound{
			CacheBlocks: c,
			Lo:          float64(farIntra+p.Cold) / float64(p.Total),
			Hi:          float64(farIntra+farEst+p.Cold) / float64(p.Total),
		})
	}
	return out
}

// ReuseProfileOf collects the trace's reuse-distance profile at the
// given block granularity — one sweep, reusable across capacities.
func ReuseProfileOf(ctx context.Context, t *trace.Trace, blockSize uint64) (*ReuseProfile, error) {
	sw, err := NewSweep(ctx, t, nil, blockSize, SweepDistances, Stats{})
	if err != nil {
		return nil, err
	}
	return sw.Profile, nil
}

// MissRatioCurve estimates the LRU miss ratio at each capacity (in
// blocks of blockSize) from the trace's reuse distances. Short
// distances come exactly from intra-sample windows (R1); reuses that
// span samples (R3) get distances estimated StatStack-style, as the
// footprint grown during the gap — mean unique blocks per load times
// the load-counter distance between the two sightings, capped by the
// ρ-scaled block population. Addresses never seen again anywhere are
// cold misses at every capacity.
//
// Callers evaluating several capacities, or bounds as well, should
// collect a ReuseProfile once instead of calling this per capacity.
func MissRatioCurve(t *trace.Trace, blockSize uint64, capacities []int) []MRCPoint {
	p, _ := ReuseProfileOf(context.Background(), t, blockSize)
	return p.MissRatioCurve(capacities)
}

// MissRatioBounds returns lower and upper miss-ratio estimates at one
// capacity (see ReuseProfile.MissRatioBounds).
func MissRatioBounds(t *trace.Trace, blockSize uint64, capacity int) (lo, hi float64) {
	p, _ := ReuseProfileOf(context.Background(), t, blockSize)
	return p.MissRatioBounds(capacity)
}
