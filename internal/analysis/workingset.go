package analysis

import (
	"context"
	"slices"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Working-set analysis (§V-B): "For working-set analysis, we use
// inter-sample reuse and blocks of OS page size." The trace's samples
// are partitioned into consecutive time intervals; each interval's
// working set is the estimated number of distinct pages the program
// touched during it, extrapolated from the sampled pages with the same
// capture-recapture machinery as the footprint estimators.

// WorkingSetPoint is one time interval of the working-set curve.
type WorkingSetPoint struct {
	Interval int
	Samples  int
	PagesObs int     // distinct pages observed in the interval's samples
	PagesEst float64 // estimated distinct pages over the whole interval
	EstLoads float64 // estimated executed loads in the interval
}

// WorkingSet computes the working-set curve over k consecutive time
// intervals at the given page size (0 selects 4 KiB).
func WorkingSet(t *trace.Trace, k int, pageSize uint64) []WorkingSetPoint {
	out, _ := WorkingSetCtx(context.Background(), t, k, pageSize)
	return out
}

// WorkingSetCtx is WorkingSet with cancellation. Each interval's pages
// are sorted in one reused buffer and counted run by run, which needs
// neither a map nor the address index a working-set-only request would
// otherwise build.
func WorkingSetCtx(ctx context.Context, t *trace.Trace, k int, pageSize uint64) ([]WorkingSetPoint, error) {
	if pageSize == 0 {
		pageSize = 4096
	}
	if k <= 0 {
		k = 8
	}
	if k > t.NumSamples() {
		k = t.NumSamples()
	}
	rho := t.Rho()
	addrs, impliedCol := t.Addrs(), t.Implied()
	var pages []uint64
	var out []WorkingSetPoint
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := i * t.NumSamples() / k
		end := (i + 1) * t.NumSamples() / k
		if end == start {
			continue
		}
		var implied float64
		pages = pages[:0]
		for si := start; si < end; si++ {
			lo, hi := t.SampleRange(si)
			for j := lo; j < hi; j++ {
				pages = append(pages, addrs[j]/pageSize)
				implied += float64(impliedCol[j])
			}
		}
		slices.Sort(pages)
		cs := CSCounts{Draws: float64(len(pages))}
		for a := 0; a < len(pages); {
			b := a + 1
			for b < len(pages) && pages[b] == pages[a] {
				b++
			}
			cs.Unique++
			if b-a == 1 {
				cs.Singletons++
			} else if b-a == 2 {
				cs.Doubletons++
			}
			a = b
		}
		kappa := 1.0
		if cs.Draws > 0 {
			kappa = 1 + implied/cs.Draws
		}
		estLoads := rho * kappa * cs.Draws
		est := EstimateUnique(dataflow.Irregular, cs, estLoads, cs.Unique*rho*kappa, 0)
		out = append(out, WorkingSetPoint{
			Interval: i, Samples: end - start,
			PagesObs: int(cs.Unique), PagesEst: est, EstLoads: estLoads,
		})
	}
	return out, nil
}

// SuggestROI returns the smallest set of procedures whose estimated
// loads cover at least coverPct percent of the trace — the §II hotspot
// analysis that defines a region of interest for selective
// instrumentation or PT hardware guards.
func SuggestROI(t *trace.Trace, coverPct float64) []string {
	return SuggestROIFromDiags(FunctionDiagnostics(t, 64), coverPct)
}

// SuggestROIFromDiags is SuggestROI over already-computed function
// diagnostics (hottest first), so callers holding them — the analyzer
// engine — do not aggregate the trace a second time.
func SuggestROIFromDiags(diags []*Diag, coverPct float64) []string {
	var total float64
	for _, d := range diags {
		total += d.EstLoads
	}
	if total == 0 {
		return nil
	}
	var out []string
	var covered float64
	for _, d := range diags {
		out = append(out, d.Name)
		covered += d.EstLoads
		if 100*covered/total >= coverPct {
			break
		}
	}
	return out
}
