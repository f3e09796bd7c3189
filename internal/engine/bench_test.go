package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// BenchmarkSuite compares the engine's one-pass suite against the same
// set of products computed with sequential flat calls — the exact call
// pattern `memgaze analyze -mrc` used before the engine existed. The
// engine's win comes from the shared derived layer: one stack-distance
// sweep feeds MRC points, bounds, reuse intervals, and confidence
// presence; one function-diagnostics pass feeds the hot-function table
// and the ROI; one zoom tree feeds the region table and block counts.
func BenchmarkSuite(b *testing.B) {
	tr := testTrace(64, 512)
	caps := []int{64, 256, 1024, 4096, 16384}

	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := New(tr, WithCapacities(caps)).Run(context.Background())
			if err != nil || rep.FunctionDiags == nil {
				b.Fatal(err)
			}
		}
	})

	// One analysis alone, each of which walks the address index for its
	// per-address or per-page state and so pays for building it when no
	// other analysis of the request does.
	for _, c := range []struct {
		name string
		a    Analysis
		done func(*Report) bool
	}{
		{"mrc", AnalyzeMRC, func(r *Report) bool { return r.MRC != nil }},
		{"workingset", AnalyzeWorkingSet, func(r *Report) bool { return r.WorkingSet != nil }},
		{"windows", AnalyzeWindows, func(r *Report) bool { return r.Windows != nil }},
		{"heatmap", AnalyzeHeatmap, func(r *Report) bool { return r.Heatmap != nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := New(tr, WithCapacities(caps), WithAnalyses(c.a)).Run(context.Background())
				if err != nil || !c.done(rep) {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.FunctionDiagnostics(tr, 64)
			analysis.WindowHistogram(tr, analysis.PowerOfTwoWindows(4, 16))
			analysis.SampleConfidence(tr, analysis.ConfidenceConfig{})
			for _, c := range caps {
				analysis.MissRatioCurve(tr, 64, []int{c})
				analysis.MissRatioBounds(tr, 64, c)
			}
			analysis.ReuseIntervalHistogram(tr)
			interval.Build(tr, 64)
			interval.IntervalDiagnostics(tr, 8, 64)
			analysis.WorkingSet(tr, 8, 4096)
			analysis.SuggestROI(tr, 90)
			root := zoom.Build(tr, zoom.Config{Block: 64})
			for _, lf := range zoom.Leaves(root) {
				analysis.BlocksTouched(tr, lf.Lo, lf.Hi, 64)
			}
		}
	})
}

// BenchmarkStreamAccum folds a streamed trace's windows in capture
// order. Each fold is in place and costs O(window), so ns/window stays
// flat as the window count — and with it the accumulated footprint —
// grows; a fold that copied the accumulation would grow linearly here.
func BenchmarkStreamAccum(b *testing.B) {
	for _, windows := range []int{100, 400} {
		samples := testTrace(windows, 512).AllSamples()
		b.Run(fmt.Sprintf("windows=%d", windows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sa := NewStreamAccum(64)
				for idx, s := range samples {
					sa.AddSample(idx, s)
				}
				if sa.Samples() != windows {
					b.Fatalf("folded %d windows, want %d", sa.Samples(), windows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
		})
	}
}
