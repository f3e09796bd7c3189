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

// sighting is the last observation of a block or address: the trigger
// load count of its sample and the sample's index.
type sighting struct {
	trigger uint64
	sample  int
}

// maxLog bounds the log2 reuse-interval histogram.
const maxLog = 40

// ibucket maps an interval length to its log2 histogram bucket.
func ibucket(v uint64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(v) - 1
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

// mapHint sizes a map that will hold roughly one entry per distinct
// block or address: pre-sizing skips the intermediate bucket arrays an
// incrementally grown map allocates and discards.
func mapHint(records int) int { return min(records/4, 1<<20) }

// NewSweep walks the trace once and computes the requested parts.
// blockSize applies to the distance profile; the interval histogram is
// exact-address as in ReuseIntervalHistogram. st may carry precomputed
// trace Stats (zero means compute on demand). It returns ctx.Err() as
// soon as the context is done.
func NewSweep(ctx context.Context, t *trace.Trace, blockSize uint64, parts SweepParts, st Stats) (*TraceSweep, error) {
	sw := &TraceSweep{BlockSize: blockSize}
	addrs, procIDs := t.Addrs(), t.ProcIDs()
	nrec := t.NumRecords()

	var pres *presence
	if parts&SweepPresence != 0 {
		pres = newPresence(len(t.Procs()))
	}

	// Distance-profile state (block granularity).
	var (
		p           = &ReuseProfile{}
		sd          *StackDist
		lastSeen    map[uint64]sighting
		gaps        []float64 // trigger gaps of R3 reuses, in stream order
		blockCounts map[uint64]int
		bpaSum      float64
		bpaN        int
		accesses    int
	)
	if parts&SweepDistances != 0 {
		sd = NewStackDist(blockSize)
		// Block-keyed maps stay far smaller than address-keyed ones —
		// several records share a block — so hint a quarter as much.
		lastSeen = make(map[uint64]sighting, mapHint(nrec)/4)
		blockCounts = make(map[uint64]int, mapHint(nrec)/4)
		// Nearly every cross-sample reuse lands one gap entry; size the
		// slice once instead of paying the append growth tax.
		gaps = make([]float64, 0, min(nrec, 1<<20))
	}

	// Interval-histogram state (exact addresses). One sighting map
	// carries both the last sample index and its trigger.
	var intraB, interB [maxLog]int
	var lastAddr map[uint64]sighting
	if parts&SweepIntervals != 0 {
		lastAddr = make(map[uint64]sighting, mapHint(nrec))
	}

	// Per-sample scratch, reused across samples (clear keeps capacity, so
	// the inner loop stops paying one map allocation per sample).
	var seenAddr map[uint64]int // addr -> record index (intervals)
	if parts&SweepIntervals != 0 {
		seenAddr = map[uint64]int{}
	}

	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		info := t.SampleInfo(si)
		lo, hi := info.Lo, info.Hi
		trigger := info.TriggerLoads
		if parts&SweepDistances != 0 && hi > lo {
			sd.Reset()
		}
		if seenAddr != nil {
			clear(seenAddr)
		}
		for j := lo; j < hi; j++ {
			addr := addrs[j]

			if parts&SweepPresence != 0 {
				pres.add(procIDs[j], si)
			}

			if parts&SweepIntervals != 0 {
				if prev, ok := seenAddr[addr]; ok {
					intraB[ibucket(uint64(j-lo-prev))]++
				} else if ls, ok := lastAddr[addr]; ok && ls.sample != si {
					// R3: estimate the interval as the load-counter
					// distance between the two samples' triggers.
					if d := trigger - ls.trigger; d > 0 {
						interB[ibucket(d)]++
					}
				}
				seenAddr[addr] = j - lo
				lastAddr[addr] = sighting{trigger: trigger, sample: si}
			}

			if parts&SweepDistances != 0 {
				accesses++
				p.Total++
				b := addr / blockSize
				blockCounts[b]++
				switch d, _ := sd.Access(addr); {
				case d >= 0:
					p.Intra = append(p.Intra, d)
				default:
					if prev, ok := lastSeen[b]; ok && prev.sample != si {
						// R3 reuse: the distance is estimated after the
						// pass, once the blocks-per-load rate is known.
						gaps = append(gaps, float64(trigger-prev.trigger))
					} else {
						p.Cold++
					}
				}
				lastSeen[b] = sighting{trigger: trigger, sample: si}
			}
		}
		if parts&SweepDistances != 0 && hi > lo {
			// Mean new-blocks-per-load within samples bounds how fast the
			// stack grows during unobserved gaps.
			bpaSum += float64(sd.Blocks()) / float64(hi-lo)
			bpaN++
		}
	}

	if parts&SweepPresence != 0 {
		sw.SamplesOf, sw.RecordsOf = pres.fold(t.Procs())
	}
	if parts&SweepIntervals != 0 {
		sw.Intervals = intervalBuckets(&intraB, &interB)
	}
	if parts&SweepDistances != 0 {
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
func finishDistances(t *trace.Trace, p *ReuseProfile, gaps []float64, blockCounts map[uint64]int, bpaSum float64, bpaN, accesses int, st Stats) {
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
