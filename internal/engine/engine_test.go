package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// testTrace synthesizes a deterministic sampled trace: several
// procedures, a hot dense region plus a sparse one, occasional
// compression (Implied > 0) so κ > 1.
func testTrace(samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	procs := []string{"alpha", "beta", "gamma", "delta"}
	tr := &trace.Trace{
		Module: "synth", Period: 10_000,
		TotalLoads: uint64(samples) * 10_000,
	}
	for s := 0; s < samples; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recs; i++ {
			var addr uint64
			if rng.Intn(4) == 0 {
				addr = 0x4000_0000 + uint64(rng.Intn(1<<20))*64 // sparse
			} else {
				addr = 0x2000_0000 + uint64(rng.Intn(1<<12))*8 // hot
			}
			rec := trace.Record{
				TS:    uint64(s*recs + i),
				Addr:  addr,
				Class: dataflow.Class(rng.Intn(3)),
				Proc:  procs[rng.Intn(len(procs))],
				Line:  int32(rng.Intn(40)),
			}
			if rng.Intn(8) == 0 {
				rec.Implied = uint32(1 + rng.Intn(3))
			}
			smp.Records = append(smp.Records, rec)
		}
		tr.AppendSample(smp)
	}
	return tr
}

func fmtDiags(ds []*analysis.Diag) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%+v\n", *d)
	}
	return b.String()
}

func fmtLeaves(ls []*zoom.Node) string {
	var b strings.Builder
	for _, lf := range ls {
		fmt.Fprintf(&b, "%#x-%#x lvl%d a%d %.4f %+v %v %v\n",
			lf.Lo, lf.Hi, lf.Level, lf.Accesses, lf.Pct, *lf.Diag, lf.Funcs, lf.Lines)
	}
	return b.String()
}

// TestReportMatchesFlatAnalyses pins the engine to the flat analysis
// functions: every Report field must be byte-identical to the
// corresponding stand-alone computation.
func TestReportMatchesFlatAnalyses(t *testing.T) {
	tr := testTrace(48, 384)
	caps := []int{64, 256, 1024, 4096, 16384}
	regions := []analysis.Region{
		{Name: "hot", Lo: 0x2000_0000, Hi: 0x2000_0000 + 1<<15},
		{Name: "sparse", Lo: 0x4000_0000, Hi: 0x4000_0000 + 1<<26},
	}
	rep, err := New(tr, WithRegions(regions),
		WithAnalyses(AllAnalyses()...)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s diverges from flat analysis\n got: %.300s\nwant: %.300s", name, got, want)
		}
	}

	check("FunctionDiags", fmtDiags(rep.FunctionDiags), fmtDiags(analysis.FunctionDiagnostics(tr, 64)))
	check("LineDiags", fmtDiags(rep.LineDiags), fmtDiags(analysis.LineDiagnostics(tr, 64)))
	check("RegionDiags", fmtDiags(rep.RegionDiags), fmtDiags(analysis.RegionDiagnostics(tr, regions, 64)))
	check("Windows", fmt.Sprintf("%+v", rep.Windows),
		fmt.Sprintf("%+v", analysis.WindowHistogram(tr, analysis.PowerOfTwoWindows(4, 16))))
	check("WorkingSet", fmt.Sprintf("%+v", rep.WorkingSet),
		fmt.Sprintf("%+v", analysis.WorkingSet(tr, 8, 4096)))
	check("ReuseIntervals", fmt.Sprintf("%+v", rep.ReuseIntervals),
		fmt.Sprintf("%+v", analysis.ReuseIntervalHistogram(tr)))
	check("MRC", fmt.Sprintf("%+v", rep.MRC),
		fmt.Sprintf("%+v", analysis.MissRatioCurve(tr, 64, caps)))
	wantBounds := make([]analysis.MRCBound, 0, len(caps))
	for _, c := range caps {
		lo, hi := analysis.MissRatioBounds(tr, 64, c)
		wantBounds = append(wantBounds, analysis.MRCBound{CacheBlocks: c, Lo: lo, Hi: hi})
	}
	check("MRCBounds", fmt.Sprintf("%+v", rep.MRCBounds), fmt.Sprintf("%+v", wantBounds))
	check("Confidence", fmt.Sprintf("%+v", rep.Confidence),
		fmt.Sprintf("%+v", analysis.SampleConfidence(tr, analysis.ConfidenceConfig{})))

	wantTree := interval.Build(tr, 64)
	check("IntervalTree root", fmt.Sprintf("%+v", *rep.IntervalTree.Root.Diag),
		fmt.Sprintf("%+v", *wantTree.Root.Diag))
	if len(rep.IntervalTree.Leaves) != len(wantTree.Leaves) {
		t.Errorf("interval tree leaves = %d, want %d", len(rep.IntervalTree.Leaves), len(wantTree.Leaves))
	}
	check("IntervalDiags", fmtDiags(rep.IntervalDiags), fmtDiags(interval.IntervalDiagnostics(tr, 8, 64)))

	wantLeaves := zoom.Leaves(zoom.Build(tr, zoom.Config{Block: 64}))
	check("ZoomLeaves", fmtLeaves(rep.ZoomLeaves), fmtLeaves(wantLeaves))
	for i, lf := range rep.ZoomLeaves {
		if want := analysis.BlocksTouched(tr, lf.Lo, lf.Hi, 64); rep.ZoomLeafBlocks[i] != want {
			t.Errorf("leaf %d blocks = %d, want %d", i, rep.ZoomLeafBlocks[i], want)
		}
	}

	// The heatmap defaults to the hottest zoom leaf.
	var hot *zoom.Node
	for _, lf := range wantLeaves {
		if hot == nil || lf.Accesses > hot.Accesses {
			hot = lf
		}
	}
	if hot == nil {
		t.Fatal("zoom found no leaves")
	}
	wantHeat := fmt.Sprintf("%+v %+v", rep.Heatmap.Access, rep.Heatmap.Dist)
	// (Heatmap geometry defaults to 20×56 in both paths.)
	flatHeat := func() string {
		h, err := New(tr, WithHeatmapRegion(hot.Lo, hot.Hi),
			WithAnalyses(AnalyzeHeatmap)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v", h.Heatmap.Access, h.Heatmap.Dist)
	}()
	check("Heatmap", wantHeat, flatHeat)
	if rep.Heatmap.Lo != hot.Lo || rep.Heatmap.Hi != hot.Hi {
		t.Errorf("heatmap region %#x-%#x, want hottest leaf %#x-%#x",
			rep.Heatmap.Lo, rep.Heatmap.Hi, hot.Lo, hot.Hi)
	}

	check("ROI", fmt.Sprintf("%v", rep.ROI), fmt.Sprintf("%v", analysis.SuggestROI(tr, 90)))
}

// TestIntervalDiagsFastPath: when every k-way split boundary lands on
// an execution-tree node (n a power-of-two multiple of k), the engine
// reuses the tree's diagnostics instead of recomputing; the reused
// slice must match the flat recomputation exactly.
func TestIntervalDiagsFastPath(t *testing.T) {
	tr := testTrace(64, 128)
	tree := interval.Build(tr, 64)
	got := intervalDiagsFromTree(tree, tr.NumSamples(), 8)
	if got == nil {
		t.Fatal("fast path not taken for n=64, k=8")
	}
	if want := interval.IntervalDiagnostics(tr, 8, 64); fmtDiags(got) != fmtDiags(want) {
		t.Errorf("fast path diverges\n got: %.300s\nwant: %.300s", fmtDiags(got), fmtDiags(want))
	}
	// Misaligned splits must decline so the caller recomputes.
	if d := intervalDiagsFromTree(tree, tr.NumSamples(), 7); d != nil {
		t.Error("fast path claimed a misaligned 7-way split")
	}
}

// TestAnalyzerReuse: a second Run on the same Analyzer reuses memoized
// derived data and produces identical output.
func TestAnalyzerReuse(t *testing.T) {
	tr := testTrace(16, 256)
	a := New(tr)
	r1, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmtDiags(r2.FunctionDiags), fmtDiags(r1.FunctionDiags); got != want {
		t.Errorf("second Run diverges:\n got %s\nwant %s", got, want)
	}
	// Memoized products are shared by pointer across runs.
	if len(r1.FunctionDiags) > 0 && r1.FunctionDiags[0] != r2.FunctionDiags[0] {
		t.Error("derived function diagnostics recomputed on second Run")
	}
}

// TestReportMetadata checks the always-filled trace identity fields.
func TestReportMetadata(t *testing.T) {
	tr := testTrace(8, 64)
	rep, err := New(tr, WithAnalyses(AnalyzeFunctions)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Module != "synth" || rep.Samples != 8 || rep.Records != 8*64 {
		t.Errorf("metadata = %q %d %d", rep.Module, rep.Samples, rep.Records)
	}
	if rep.Rho != tr.Rho() || rep.Kappa != tr.Kappa() {
		t.Errorf("rho/kappa = %v/%v, want %v/%v", rep.Rho, rep.Kappa, tr.Rho(), tr.Kappa())
	}
}

// TestEmptySamplesDefaultSuite runs the default suite on a trace whose
// samples carry no records — a shape Decode accepts and memgazed stores.
// Sample views of it (the confidence halves) have no records to rank, so
// borrowing the parent's address index must not refuse them.
func TestEmptySamplesDefaultSuite(t *testing.T) {
	tr := &trace.Trace{Module: "empty", Period: 10_000, TotalLoads: 40_000}
	for s := 0; s < 4; s++ {
		tr.AddSample(s, 0, uint64(s+1)*10_000)
	}
	rep, err := New(tr, WithAnalyses(DefaultAnalyses()...)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 4 || rep.Records != 0 {
		t.Errorf("samples/records = %d/%d, want 4/0", rep.Samples, rep.Records)
	}
}
