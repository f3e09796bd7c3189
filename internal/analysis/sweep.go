package analysis

import (
	"context"
	"math/bits"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// One stack-distance sweep, three analyses. MissRatioCurve,
// MissRatioBounds, ReuseIntervalHistogram, and SampleConfidence all need
// the same walk over the trace — a per-sample StackDist stream plus
// cross-sample last-sighting bookkeeping — and each used to repeat it.
// NewSweep performs that walk once and returns every product the walk
// can pay for:
//
//   - SweepDistances — the reuse-distance profile (intra-sample exact
//     distances, estimated inter-sample distances, cold misses) that
//     MissRatioCurve and MissRatioBounds consume.
//   - SweepIntervals — the log2 reuse-interval histogram of
//     ReuseIntervalHistogram (address granularity, R1/R3 split).
//   - SweepPresence — per-procedure sample/record presence counts, the
//     sample-density half of SampleConfidence (§VI-A).
//
// The walk reads the trace's columns directly — the addrs, procIDs and
// trigger values it needs are sequential scans over flat arrays, and
// per-procedure presence is counted in dense arrays indexed by interned
// proc id (folded to name-keyed maps once at the end).
//
// The flat analysis functions route through a sweep restricted to their
// own part, so their results are unchanged; the engine requests all
// parts at once and shares the result.

// SweepParts selects which products a sweep computes.
type SweepParts uint

const (
	// SweepDistances collects the block-granularity reuse-distance
	// profile for miss-ratio prediction.
	SweepDistances SweepParts = 1 << iota
	// SweepIntervals collects the address-granularity reuse-interval
	// histogram.
	SweepIntervals
	// SweepPresence collects per-procedure presence counts.
	SweepPresence

	// SweepEverything computes all products in the one pass.
	SweepEverything = SweepDistances | SweepIntervals | SweepPresence
)

// TraceSweep holds the products of one sweep. Fields outside the
// requested parts are zero.
type TraceSweep struct {
	BlockSize uint64

	// Profile is the reuse-distance profile (SweepDistances).
	Profile *ReuseProfile
	// Intervals is the reuse-interval histogram (SweepIntervals).
	Intervals []IntervalBucket
	// SamplesOf counts samples containing at least one record of each
	// procedure; RecordsOf counts its records (SweepPresence).
	SamplesOf, RecordsOf map[string]int
}

// maxLog bounds the log2 reuse-interval histogram.
const maxLog = 40

// ibucket maps an interval length to its log2 histogram bucket. The
// last bucket also holds every longer interval: trigger gaps come from
// the trace, and an uploaded one may claim any 64-bit gap, a
// decreasing trigger included (it wraps).
func ibucket(v uint64) int {
	if v == 0 {
		return 0
	}
	return min(bits.Len64(v)-1, maxLog-1)
}

// presence is the dense per-procedure presence state: counts indexed by
// interned proc id, plus a seen-this-sample marker that avoids a
// per-sample clear (the marker stores the sample index it was last set
// in).
type presence struct {
	samplesOf, recordsOf []int
	seenIn               []int
}

func newPresence(n int) *presence {
	p := &presence{
		samplesOf: make([]int, n),
		recordsOf: make([]int, n),
		seenIn:    make([]int, n),
	}
	for i := range p.seenIn {
		p.seenIn[i] = -1
	}
	return p
}

func (p *presence) add(id uint32, si int) {
	p.recordsOf[id]++
	if p.seenIn[id] != si {
		p.seenIn[id] = si
		p.samplesOf[id]++
	}
}

// fold converts the dense counts to the name-keyed maps of the public
// result.
func (p *presence) fold(names []string) (samplesOf, recordsOf map[string]int) {
	samplesOf, recordsOf = map[string]int{}, map[string]int{}
	for id, n := range p.recordsOf {
		if n > 0 {
			recordsOf[names[id]] += n
			samplesOf[names[id]] += p.samplesOf[id]
		}
	}
	return samplesOf, recordsOf
}

// NewSweep walks the trace once and computes the requested parts.
// blockSize applies to the distance profile; the interval histogram is
// exact-address as in ReuseIntervalHistogram. ix is an address index
// covering t (t's own, or the index of the trace t is a sample view
// of); nil builds one when the distance or interval part needs it. st
// may carry precomputed trace Stats (zero means compute on demand). It
// returns ctx.Err() as soon as the context is done.
//
// Every per-block and per-address state is a flat array indexed by the
// index's block or address rank: a ReuseTracker measures the distances,
// and lifetime positions — which only grow — tell a sighting earlier in
// the current sample from one in an earlier sample, so nothing is
// cleared between samples.
func NewSweep(ctx context.Context, t *trace.Trace, ix *AddrIndex, blockSize uint64, parts SweepParts, st Stats) (*TraceSweep, error) {
	sw := &TraceSweep{BlockSize: blockSize}
	if parts&(SweepDistances|SweepIntervals) != 0 {
		var err error
		if ix, err = indexFor(ctx, t, ix); err != nil {
			return nil, err
		}
	}
	procIDs := t.ProcIDs()

	var pres *presence
	if parts&SweepPresence != 0 {
		pres = newPresence(len(t.Procs()))
	}

	// Distance-profile state, per block rank: the trigger of the
	// block's latest sample and its access count.
	var (
		p           = &ReuseProfile{}
		dist        *ReuseTracker
		blockTrig   []uint64
		blockCounts []uint32
		gaps        []float64 // trigger gaps of R3 reuses, in stream order
		bpaSum      float64
		bpaN        int
		accesses    int
	)
	if parts&SweepDistances != 0 {
		dist = ix.ReuseTracker(0, len(ix.addrs), blockSize)
		blockTrig = make([]uint64, len(dist.last))
		blockCounts = make([]uint32, len(dist.last))
		// Nearly every cross-sample reuse lands one gap entry; size the
		// slice once instead of paying the append growth tax.
		gaps = make([]float64, 0, min(t.NumRecords(), 1<<20))
	}

	// Interval-histogram state, per address rank: the sweep position of
	// the address's latest access (0 = never) and its sample's trigger.
	var intraB, interB [maxLog]int
	var addrPos []int
	var addrTrig []uint64
	if parts&SweepIntervals != 0 {
		addrPos = make([]int, len(ix.addrs))
		addrTrig = make([]uint64, len(ix.addrs))
	}

	pos := 0 // records swept so far
	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		info := t.SampleInfo(si)
		lo, hi := info.Lo, info.Hi
		trigger := info.TriggerLoads
		run := pos
		if dist != nil {
			dist.StartRun(hi - lo)
		}
		blocks := 0 // distinct blocks of the sample
		for j := lo; j < hi; j++ {
			pos++
			if pres != nil {
				pres.add(procIDs[j], si)
			}
			if dist == nil && addrPos == nil {
				continue
			}
			r := ix.ranks[j-ix.base]

			if addrPos != nil {
				if l := addrPos[r]; l > run {
					intraB[ibucket(uint64(pos-l))]++
				} else if l > 0 {
					// R3: estimate the interval as the load-counter
					// distance between the two samples' triggers.
					if d := trigger - addrTrig[r]; d > 0 {
						interB[ibucket(d)]++
					}
				}
				addrPos[r] = pos
				addrTrig[r] = trigger
			}

			if dist != nil {
				accesses++
				p.Total++
				b := dist.brank[r]
				blockCounts[b]++
				seen := dist.last[b] > 0
				if d := dist.access(b); d >= 0 {
					p.Intra = append(p.Intra, d)
					continue
				}
				blocks++
				if seen {
					// R3 reuse: the distance is estimated after the
					// pass, once the blocks-per-load rate is known.
					gaps = append(gaps, float64(trigger-blockTrig[b]))
				} else {
					p.Cold++
				}
				blockTrig[b] = trigger
			}
		}
		if dist != nil && hi > lo {
			// Mean new-blocks-per-load within samples bounds how fast the
			// stack grows during unobserved gaps.
			bpaSum += float64(blocks) / float64(hi-lo)
			bpaN++
		}
	}

	if pres != nil {
		sw.SamplesOf, sw.RecordsOf = pres.fold(t.Procs())
	}
	if parts&SweepIntervals != 0 {
		sw.Intervals = intervalBuckets(&intraB, &interB)
	}
	if dist != nil {
		finishDistances(t, p, gaps, blockCounts, bpaSum, bpaN, accesses, st)
		sw.Profile = p
	}
	return sw, nil
}

// intervalBuckets folds the dense histograms into the sparse
// IntervalBucket list.
func intervalBuckets(intraB, interB *[maxLog]int) []IntervalBucket {
	var out []IntervalBucket
	for l := 0; l < maxLog; l++ {
		if intraB[l] == 0 && interB[l] == 0 {
			continue
		}
		out = append(out, IntervalBucket{Log2: l, Intra: intraB[l], Inter: interB[l]})
	}
	return out
}

// finishDistances turns the walk's raw distance state into the final
// ReuseProfile: trigger gaps become capped inter-sample distance
// estimates, and excess survivals are relabeled using the block
// population (Good–Turing over the block multiset). gaps are in stream
// order, which makes the leftover replication deterministic.
func finishDistances(t *trace.Trace, p *ReuseProfile, gaps []float64, blockCounts []uint32, bpaSum float64, bpaN, accesses int, st Stats) {
	if accesses == 0 {
		return
	}
	bpa := 0.5
	if bpaN > 0 {
		bpa = bpaSum / float64(bpaN)
	}
	// Block population (Good–Turing over the block multiset): caps
	// inter-sample distance estimates — no reuse distance can exceed
	// the number of distinct blocks — and sets the true cold-miss
	// rate.
	var cs CSCounts
	for _, n := range blockCounts {
		if n == 0 {
			continue // a block of the index the trace never touches
		}
		cs.Unique++
		if n == 1 {
			cs.Singletons++
		} else if n == 2 {
			cs.Doubletons++
		}
		cs.Draws += float64(n)
	}
	st = st.orStatsOf(t)
	rho, kappa := st.Rho, st.Kappa
	estLoads := rho * kappa * float64(accesses)
	popCap := EstimateUnique(dataflow.Irregular, cs, estLoads, cs.Unique*rho*kappa, 0)

	// Sparse samples mislabel most survivals: an address seen once is
	// usually a reuse whose partner was not sampled, not a cold miss.
	// The true cold rate is (distinct blocks ever touched) /
	// (executed loads); the excess survivals get the empirical
	// inter-sample distance distribution.
	coldTrue := int(popCap / estLoads * float64(p.Total))
	if coldTrue > p.Cold {
		coldTrue = p.Cold
	}
	leftover := p.Cold - coldTrue
	p.Cold = coldTrue

	// Turn trigger gaps into distance estimates. One exact allocation
	// holds everything Estimated will ever contain here; the leftover
	// replication indexes the freshly written prefix in place.
	out := make([]int, 0, len(p.Estimated)+len(gaps)+leftover)
	out = append(out, p.Estimated...)
	start := len(out)
	for _, gap := range gaps {
		est := bpa * gap / kappa
		if est > popCap {
			est = popCap
		}
		out = append(out, int(est))
	}
	interDists := out[start:]
	for i := 0; i < leftover; i++ {
		if len(interDists) > 0 {
			out = append(out, interDists[i%len(interDists)])
		} else {
			// No cross-sample evidence at all: treat as beyond any
			// practical capacity.
			out = append(out, int(popCap))
		}
	}
	p.Estimated = out
}
