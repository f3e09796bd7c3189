package memgaze_test

import (
	"testing"

	memgaze "github.com/memgaze/memgaze-go"
	"github.com/memgaze/memgaze-go/internal/workloads/micro"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// TestPublicFacade exercises the re-exported API end to end the way a
// downstream user would.
func TestPublicFacade(t *testing.T) {
	spec := micro.Spec{Pattern: micro.Str{Step: 1, Accesses: 1024}, Reps: 10, Opt: micro.O3}
	cfg := memgaze.DefaultConfig()
	cfg.Period = 5_000
	cfg.BufBytes = 16 << 10
	res, err := memgaze.Run(memgaze.FuncWorkload{WName: spec.Name(), BuildFn: spec.Build}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumRecords() == 0 {
		t.Fatal("no records")
	}
	rep, err := memgaze.NewAnalyzer(res.Trace,
		memgaze.WithBlockSize(64),
		memgaze.WithWindows(memgaze.PowerOfTwoWindows(4, 10)),
		memgaze.WithZoomConfig(zoom.DefaultConfig()),
		memgaze.WithROICoverage(90),
		memgaze.WithWorkingSetIntervals(4),
		memgaze.WithPageSize(4096),
		memgaze.WithCapacities([]int{64, 4096}),
		memgaze.WithAnalyses(memgaze.AnalyzeFunctions, memgaze.AnalyzeWindows,
			memgaze.AnalyzeZoom, memgaze.AnalyzeIntervalTree, memgaze.AnalyzeROI,
			memgaze.AnalyzeWorkingSet, memgaze.AnalyzeMRC),
	).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FunctionDiags) == 0 {
		t.Fatal("no diagnostics")
	}
	for _, d := range rep.FunctionDiags {
		if d.Name == "str1_0" && d.FstrPct < 99 {
			t.Errorf("strided leaf Fstr%% = %.1f", d.FstrPct)
		}
	}
	if len(rep.Windows) == 0 || rep.Windows[0].N == 0 {
		t.Error("empty histogram")
	}
	if len(memgaze.ZoomLeaves(rep.ZoomRoot)) == 0 {
		t.Error("zoom found no regions")
	}
	if tree := rep.IntervalTree; tree == nil || tree.Root == nil || tree.Root.Diag.A != res.Trace.NumRecords() {
		t.Error("interval tree root inconsistent")
	}

	// Load classes and reuse distance through the facade.
	sd := memgaze.NewStackDist(64)
	sd.Access(0)
	sd.Access(64)
	if d, _ := sd.Access(0); d != 1 {
		t.Errorf("facade stack distance = %d", d)
	}
	if memgaze.Constant.String() != "constant" || memgaze.Strided.String() != "strided" ||
		memgaze.Irregular.String() != "irregular" {
		t.Error("class names wrong through facade")
	}

	// Derived analyses through the facade.
	if len(rep.ROI) == 0 {
		t.Error("no ROI suggested")
	}
	if len(rep.WorkingSet) == 0 {
		t.Error("no working-set points")
	}
	if mrc := rep.MRC; len(mrc) != 2 || mrc[0].MissRatio < mrc[1].MissRatio {
		t.Errorf("facade MRC = %+v", mrc)
	}

	// Analysis-name parsing through the facade.
	names := memgaze.AnalysisNames()
	if len(names) != len(memgaze.AllAnalyses()) {
		t.Errorf("%d analysis names for %d analyses", len(names), len(memgaze.AllAnalyses()))
	}
	if a, ok := memgaze.ParseAnalysis("mrc"); !ok || a != memgaze.AnalyzeMRC {
		t.Errorf("ParseAnalysis(mrc) = %v, %v", a, ok)
	}
	if _, ok := memgaze.ParseAnalysis("bogus"); ok {
		t.Error("ParseAnalysis accepted an unknown name")
	}

	// Cross-trace comparison through the facade: a self-diff is zero.
	d, err := memgaze.CompareTraces(t.Context(), res.Trace, res.Trace, memgaze.WithDiffTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Functions) == 0 {
		t.Fatal("self-diff has no function shifts")
	}
	for _, f := range d.Functions {
		if f.DLoads != 0 || f.OnlyIn != "" {
			t.Errorf("self-diff function %q: %+v", f.Name, f)
		}
	}
	for _, m := range d.MRC {
		if m.Delta != 0 || m.Significant {
			t.Errorf("self-diff MRC at %d blocks: %+v", m.CacheBlocks, m)
		}
	}
}
