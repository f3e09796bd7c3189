package analysis

import (
	"context"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// Reuse-interval observability (§IV-A, Fig. 3). A reuse interval is the
// number of loads between two references to the same address. Sampled
// traces observe intervals in three regimes:
//
//	R1 — both references inside one sample: the interval is exact
//	     (bounded by w−1).
//	R2 — one reference in a sample, its pair in the unrecorded gap:
//	     intervals in roughly [w, z] are structurally unobservable.
//	R3 — references in different samples: the interval is estimable
//	     from the trigger distance, but a single complete interval is
//	     indistinguishable from multiple incomplete ones.
//
// ReuseIntervalHistogram reports the observed intervals in log2 buckets
// with their regime, and BlindSpots describes the R2 window a trace
// configuration cannot see.

// IntervalBucket is one power-of-two bucket of the interval histogram.
type IntervalBucket struct {
	Log2  int // intervals in [2^Log2, 2^(Log2+1))
	Intra int // R1: exact intra-sample observations
	Inter int // R3: estimated inter-sample observations
}

// ReuseIntervalHistogram computes the histogram over the whole trace.
// Intra-sample intervals are measured in observed records; inter-sample
// intervals are estimated from the hardware load counter at the
// enclosing triggers (the R3 estimate). It is one product of the shared
// trace sweep (NewSweep with SweepIntervals).
func ReuseIntervalHistogram(t *trace.Trace) []IntervalBucket {
	sw, _ := NewSweep(context.Background(), t, nil, 64, SweepIntervals, Stats{})
	if sw == nil {
		return nil
	}
	return sw.Intervals
}

// BlindSpot is a range of reuse-interval lengths a sampled-trace
// configuration cannot observe.
type BlindSpot struct {
	Lo, Hi uint64 // inclusive interval lengths, in loads
	Why    string
}

// BlindSpots returns the structural observability gap of a (w, w+z)
// configuration. Deriving the capturability condition from window
// geometry (and cross-checked against a brute-force simulation in the
// tests): with periodic windows, both ends of an interval d can land in
// recorded windows iff d mod (w+z) falls outside [w, z] — ends may sit
// in *different* windows, so intervals just below a multiple of the
// period are capturable even when longer than z (the paper's R2/R3
// classification, §IV-A, made precise). The blind family is therefore
// [w, z] modulo the period.
func BlindSpots(w, period uint64) []BlindSpot {
	if period <= w || w == 0 {
		return nil
	}
	z := period - w
	if z < w {
		return nil
	}
	return []BlindSpot{{Lo: w, Hi: z,
		Why: "R2/R3: d mod (w+z) lands in the unrecorded gap (repeats every period)"}}
}

// Observable reports whether an interval of the given length can in
// principle be captured by a (w, period) configuration: true iff
// interval mod period lies outside the blind family [w, z].
func Observable(interval, w, period uint64) bool {
	if period == 0 || w == 0 {
		return true // full trace
	}
	z := period - w
	m := interval % period
	return m < w || m > z
}
