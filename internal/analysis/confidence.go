package analysis

import (
	"context"
	"sort"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// The paper notes that "it should be possible to automatically detect
// most undersampling by analyzing sample density and forming confidence
// intervals. One could flag regions with insufficient samples" (§VI-A).
// Confidence implements that: per code window it reports how many
// samples contributed, and a split-half spread — the relative
// disagreement between footprint estimates computed from the even- and
// odd-numbered samples. Two independent half-estimates agreeing is
// exactly the stability the aggregation argument of §IV-B relies on.

// Confidence summarises estimate stability for one code window.
type Confidence struct {
	Name    string
	Samples int // samples containing at least one record of the window
	Records int
	// HalfSpread is |F̂(even) − F̂(odd)| / mean — 0 is perfect agreement.
	HalfSpread float64
	// Flagged marks windows whose diagnostics should not be trusted:
	// too few samples or unstable half-estimates.
	Flagged bool
	Reason  string
}

// ConfidenceConfig sets the flagging thresholds.
type ConfidenceConfig struct {
	MinSamples    int     // default 8
	MinRecords    int     // default 64
	MaxHalfSpread float64 // default 0.5 (50% disagreement)
	BlockSize     uint64  // default 64
}

func (c *ConfidenceConfig) fill() {
	if c.MinSamples == 0 {
		c.MinSamples = 8
	}
	if c.MinRecords == 0 {
		c.MinRecords = 64
	}
	if c.MaxHalfSpread == 0 {
		c.MaxHalfSpread = 0.5
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
}

// SampleConfidence evaluates every code window of the trace and returns
// per-function confidence reports, most-flagged first.
func SampleConfidence(t *trace.Trace, cfg ConfidenceConfig) []Confidence {
	out, _ := SampleConfidenceCtx(context.Background(), t, nil, cfg, nil, nil)
	return out
}

// SampleConfidenceCtx is SampleConfidence with cancellation and
// injectable shared products: callers already holding t's address index
// pass it (nil builds one), and callers holding the per-procedure
// sample/record counts of a trace sweep (NewSweep with SweepPresence)
// pass them so the presence pass is not repeated; either map nil
// recomputes both here. The split halves are sample views of t, so
// their diagnostics borrow the index's per-record ranks.
func SampleConfidenceCtx(ctx context.Context, t *trace.Trace, ix *AddrIndex, cfg ConfidenceConfig, samplesOf, recordsOf map[string]int) ([]Confidence, error) {
	cfg.fill()
	ix, err := indexFor(ctx, t, ix)
	if err != nil {
		return nil, err
	}

	if samplesOf == nil || recordsOf == nil {
		sw, err := NewSweep(ctx, t, ix, cfg.BlockSize, SweepPresence, Stats{})
		if err != nil {
			return nil, err
		}
		samplesOf, recordsOf = sw.SamplesOf, sw.RecordsOf
	}

	// Split-half estimates: diagnostics over even vs odd samples.
	even := halfTrace(t, 0)
	odd := halfTrace(t, 1)
	fEven, err := diagF(ctx, ix, even, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	fOdd, err := diagF(ctx, ix, odd, cfg.BlockSize)
	if err != nil {
		return nil, err
	}

	var out []Confidence
	for name, recs := range recordsOf {
		c := Confidence{Name: name, Samples: samplesOf[name], Records: recs}
		a, b := fEven[name], fOdd[name]
		if a+b > 0 {
			d := a - b
			if d < 0 {
				d = -d
			}
			c.HalfSpread = d / ((a + b) / 2)
		}
		switch {
		case c.Samples < cfg.MinSamples:
			c.Flagged = true
			c.Reason = "too few samples"
		case c.Records < cfg.MinRecords:
			c.Flagged = true
			c.Reason = "too few records"
		case c.HalfSpread > cfg.MaxHalfSpread:
			c.Flagged = true
			c.Reason = "unstable split-half estimates"
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flagged != out[j].Flagged {
			return out[i].Flagged
		}
		if out[i].HalfSpread != out[j].HalfSpread {
			return out[i].HalfSpread > out[j].HalfSpread
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// halfTrace keeps samples whose index ≡ parity (mod 2) — a column-
// sharing view; TotalLoads is halved so ρ stays comparable.
func halfTrace(t *trace.Trace, parity int) *trace.Trace {
	nt := t.FilterSamples(func(i int) bool { return i%2 == parity })
	nt.TotalLoads = t.TotalLoads / 2
	return nt
}

func diagF(ctx context.Context, ix *AddrIndex, t *trace.Trace, blockSize uint64) (map[string]float64, error) {
	diags, err := ix.FunctionDiagnostics(ctx, t, blockSize, Stats{})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, d := range diags {
		out[d.Name] = d.F
	}
	return out, nil
}
