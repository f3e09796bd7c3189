package experiments

import (
	"strings"
	"testing"
)

// TestFig6Shapes asserts the paper's validation claims at quick sizes:
// trace-window MAPE bounded, code windows tighter than trace windows on
// average.
func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	// Paper claims: trace-window MAPE < 25% (we allow a small margin at
	// toy scale); for the micro-benchmarks — whose references are true
	// full traces — code windows reduce error well below trace windows.
	var microTrace, microCode float64
	var microN int
	for _, r := range res.Rows {
		if r.TraceF > 30 {
			t.Errorf("%s: trace-window MAPE F = %.1f%%, want < 30%%", r.Name, r.TraceF)
		}
		if !strings.Contains(r.Name, "miniVite") && !strings.Contains(r.Name, "GAP") {
			microTrace += r.TraceF
			microCode += r.CodeF
			microN++
		}
	}
	if microN > 0 {
		mt, mc := microTrace/float64(microN), microCode/float64(microN)
		if mc >= mt {
			t.Errorf("micro code windows (%.1f%%) should beat trace windows (%.1f%%)", mc, mt)
		}
		if mc > 5 {
			t.Errorf("micro code-window error %.1f%%, want < 5%%", mc)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	for _, r := range res.Rows {
		if r.Total <= 0 {
			t.Errorf("%s: total overhead %.3f, want positive", r.Name, r.Total)
		}
		if r.OptHot >= r.PhaseHot {
			t.Errorf("%s: MemGaze-opt hot-phase overhead %.3f should beat continuous %.3f",
				r.Name, r.OptHot, r.PhaseHot)
		}
	}
	// Overhead correlates with executed ptwrites: within each benchmark,
	// the phase with the higher ptwrite ratio carries the higher
	// overhead. Store-dense phases may deviate (the paper's Darknet
	// caveat), so require consistency on a clear majority.
	consistent, comparable := 0, 0
	for _, r := range res.Rows {
		if r.RatioGen == 0 || r.RatioGen == r.RatioHot {
			continue // single-phase benchmarks (Darknet) have no gen phase
		}
		comparable++
		if (r.RatioHot > r.RatioGen) == (r.PhaseHot > r.PhaseGen) {
			consistent++
		}
	}
	if comparable > 0 && consistent*3 < comparable*2 {
		t.Errorf("phase overhead tracked the ptwrite ratio in only %d/%d benchmarks", consistent, comparable)
	}
}

func TestTable3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	for _, r := range res.Rows {
		_, all, _ := r.Ratios()
		if r.Sampled == 0 {
			t.Errorf("%s: empty sampled trace", r.Name)
			continue
		}
		if all > 35 {
			t.Errorf("%s: sampled/All ratio %.1f%%, want small", r.Name, all)
		}
		if r.AllPlus < r.AllBytes {
			t.Errorf("%s: All+ (%d) below All (%d)", r.Name, r.AllPlus, r.AllBytes)
		}
		// O0 rows must decompress by more than O3 rows of the same family.
		if strings.Contains(r.Name, "O0") && r.Kappa < 1.4 {
			t.Errorf("%s: kappa %.2f, want ≈2 at O0", r.Name, r.Kappa)
		}
		if strings.Contains(r.Name, "O3") && (r.Kappa < 1.02 || r.Kappa > 1.45) {
			t.Errorf("%s: kappa %.2f, want ≈1.2 at O3", r.Name, r.Kappa)
		}
	}
}

func TestTables4And5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t4, err := Table4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t4.Text)
	get := func(fn, variant string) *FuncDiag {
		for i := range t4.Funcs {
			if t4.Funcs[i].Func == fn && t4.Funcs[i].Variant == variant {
				return &t4.Funcs[i]
			}
		}
		t.Fatalf("missing %s/%s", fn, variant)
		return nil
	}
	// getMax: v1 is nearly all irregular; v2/v3 nearly all strided.
	if g1 := get("getMax", "v1"); g1.Diag.FstrPct > 30 {
		t.Errorf("getMax v1 Fstr%% = %.1f, want low", g1.Diag.FstrPct)
	}
	for _, v := range []string{"v2", "v3"} {
		if g := get("getMax", v); g.Diag.FstrPct < 70 {
			t.Errorf("getMax %s Fstr%% = %.1f, want high", v, g.Diag.FstrPct)
		}
	}
	// Run times improve v1 > v2 > v3.
	if !(t4.Runtimes["v1"].Cycles > t4.Runtimes["v2"].Cycles &&
		t4.Runtimes["v2"].Cycles > t4.Runtimes["v3"].Cycles) {
		t.Errorf("run times should improve v1>v2>v3: %d, %d, %d",
			t4.Runtimes["v1"].Cycles, t4.Runtimes["v2"].Cycles, t4.Runtimes["v3"].Cycles)
	}

	t5, err := Table5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t5.Text)
	if len(t5.Regions) != 9 {
		t.Errorf("Table V rows = %d, want 9 (3 regions × 3 variants)", len(t5.Regions))
	}
}

func TestTable9AndFigs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t9, err := Table9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t9.Text)
	byAlgo := map[string]*RegionDiag{}
	for i := range t9.Regions {
		byAlgo[t9.Regions[i].Variant] = &t9.Regions[i]
	}
	// pr's Gauss-Seidel updates give better (smaller) D than pr-spmv.
	if byAlgo["pr"].Diag.D >= byAlgo["pr-spmv"].Diag.D {
		t.Errorf("pr D=%.2f should be below pr-spmv D=%.2f",
			byAlgo["pr"].Diag.D, byAlgo["pr-spmv"].Diag.D)
	}
	// cc has higher average D than cc-sv but runs much faster.
	if byAlgo["cc"].Diag.D <= byAlgo["cc-sv"].Diag.D {
		t.Errorf("cc D=%.2f should exceed cc-sv D=%.2f",
			byAlgo["cc"].Diag.D, byAlgo["cc-sv"].Diag.D)
	}
	if t9.Runtimes["cc"].Cycles >= t9.Runtimes["cc-sv"].Cycles {
		t.Errorf("cc should be faster than cc-sv")
	}

	f8, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// cc-sv has more access mass overall; cc's D distribution carries the
	// outliers that inflate its average.
	if f8.Dist["cc"].Max <= f8.Dist["cc-sv"].Max {
		t.Errorf("cc D heatmap max %.1f should exceed cc-sv %.1f",
			f8.Dist["cc"].Max, f8.Dist["cc-sv"].Max)
	}

	f9, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for algo, pts := range f9.Points {
		if len(pts) == 0 {
			t.Errorf("fig9: no points for %s", algo)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	comp, err := AblationCompression(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", comp.Text)
	for _, r := range comp.Rows {
		if r.SavingsFactor < 1.0 {
			t.Errorf("%s: compression made traces bigger (%.2fx)", r.Name, r.SavingsFactor)
		}
		if strings.Contains(r.Name, "O0") && r.SavingsFactor < 1.3 {
			t.Errorf("%s: O0 savings %.2fx, want approaching 2x", r.Name, r.SavingsFactor)
		}
	}

	sweep, err := AblationSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sweep.Text)
	// Longer periods must shrink traces.
	byPeriod := map[uint64]uint64{}
	for _, r := range sweep.Rows {
		byPeriod[r.Period] += r.Bytes
	}
	q := Quick()
	if byPeriod[q.MicroPeriod/4] <= byPeriod[q.MicroPeriod*4] {
		t.Errorf("shorter periods should record more bytes: %v", byPeriod)
	}

	zc, err := AblationZoomContiguity(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", zc.Text)
	if zc.Leaves == 0 {
		t.Error("zoom found no leaf regions")
	}

	bs, err := AblationBlockSize(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", bs.Text)
	for _, r := range bs.Rows {
		if r.DPage > r.DCacheLine && r.DCacheLine > 0 {
			t.Errorf("%s: page-granularity D (%.2f) above line-granularity (%.2f)",
				r.Name, r.DPage, r.DCacheLine)
		}
	}
}

func TestAblationParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := AblationParallel(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Wall clock shrinks with workers; analysis stays consistent.
	if res.Rows[2].Cycles >= res.Rows[0].Cycles {
		t.Errorf("no parallel speedup: %d vs %d", res.Rows[2].Cycles, res.Rows[0].Cycles)
	}
	if res.Rows[2].CPUs < 2 {
		t.Errorf("merged trace covers %d CPUs", res.Rows[2].CPUs)
	}
	if res.Rows[2].MAPEF > 30 {
		t.Errorf("parallel analysis diverges from serial: MAPE %.1f%%", res.Rows[2].MAPEF)
	}
}

func TestAblationBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := AblationBuild(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Samples == 0 {
		t.Fatal("no samples collected")
	}
	// Deterministic reassembly: every worker count builds the same trace.
	// (Timing is hardware-dependent and not asserted.)
	for _, r := range res.Rows[1:] {
		if r.Records != res.Rows[0].Records {
			t.Errorf("workers=%d: %d records, sequential built %d",
				r.Workers, r.Records, res.Rows[0].Records)
		}
		if r.Resyncs != res.Rows[0].Resyncs {
			t.Errorf("workers=%d: %d resyncs, sequential saw %d",
				r.Workers, r.Resyncs, res.Rows[0].Resyncs)
		}
	}
}

func TestAblationGemmTiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := AblationGemmTiling(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's expectation for small matrices: tiling does not help
	// materially. Allow it to be anywhere within ±20% of untiled.
	base := float64(res.Rows[0].Cycles)
	for _, r := range res.Rows[1:] {
		ratio := float64(r.Cycles) / base
		if ratio < 0.8 || ratio > 1.3 {
			t.Errorf("tileK=%d changed run time by %.2fx; expected marginal effect", r.TileK, ratio)
		}
	}
}

func TestDarknetTablesShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t6, err := Table6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t6.Text)
	var gemmF, im2colF map[string]float64 = map[string]float64{}, map[string]float64{}
	for _, fd := range t6.Funcs {
		if fd.Func == "gemm" {
			gemmF[fd.Variant] = fd.Diag.F
		} else {
			im2colF[fd.Variant] = fd.Diag.F
		}
		if fd.Diag.FstrPct < 99 {
			t.Errorf("%s/%s Fstr%% = %.1f, want ≈100", fd.Func, fd.Variant, fd.Diag.FstrPct)
		}
	}
	// gemm dominates im2col; ResNet exceeds AlexNet.
	for _, m := range []string{"AlexNet", "ResNet"} {
		if gemmF[m] <= im2colF[m] {
			t.Errorf("%s: gemm F %.0f not above im2col %.0f", m, gemmF[m], im2colF[m])
		}
	}
	if gemmF["ResNet"] <= gemmF["AlexNet"] {
		t.Errorf("ResNet gemm F %.0f not above AlexNet %.0f", gemmF["ResNet"], gemmF["AlexNet"])
	}

	t7, err := Table7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t7.Text)
	// AlexNet reports one fused region; ResNet reports three.
	var alex, res int
	for _, rd := range t7.Regions {
		if rd.Variant == "AlexNet" {
			alex++
		} else {
			res++
		}
	}
	if alex != 1 || res != 3 {
		t.Errorf("region counts: AlexNet %d (want 1), ResNet %d (want 3)", alex, res)
	}

	t8, err := Table8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t8.Text)
	perModel := map[string]int{}
	firstD := map[string]float64{}
	lastD := map[string]float64{}
	for _, r := range t8.Rows {
		perModel[r.Model]++
		if r.Diag.A == 0 {
			t.Errorf("%s interval %d empty", r.Model, r.Interval)
		}
		if r.Interval == 0 {
			firstD[r.Model] = r.Diag.D
		}
		if r.Diag.D > 0 {
			lastD[r.Model] = r.Diag.D
		}
	}
	if perModel["AlexNet"] != 8 || perModel["ResNet"] != 8 {
		t.Errorf("interval counts = %v, want 8 each", perModel)
	}
	// The paper's trend: D rises over time as N shrinks below the
	// sample window (early layers' long rows hide cross-row reuse).
	for _, m := range []string{"AlexNet", "ResNet"} {
		if lastD[m] <= firstD[m] {
			t.Errorf("%s: D should rise over intervals (%.2f -> %.2f)", m, firstD[m], lastD[m])
		}
	}
}

func TestExtrasRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Extras(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	if len(res.WorkingSet) == 0 {
		t.Error("no working-set points")
	}
	if len(res.Confidence) == 0 {
		t.Error("no confidence entries")
	}
	if len(res.Intervals) == 0 {
		t.Error("no interval buckets")
	}
	var intra int
	for _, b := range res.Intervals {
		intra += b.Intra
	}
	if intra == 0 {
		t.Error("no intra-sample (R1) reuse observed")
	}
	if len(res.Blind) == 0 {
		t.Error("no blind spot for a sampled configuration")
	}
}

func TestAblationMRC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := AblationMRC(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	// Both curves decrease with cache size, and the prediction tracks
	// the simulation within a small factor in the interesting middle.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Predicted > res.Rows[i-1].Predicted+1e-9 {
			t.Error("predicted MRC not monotone")
		}
		if res.Rows[i].Simulated > res.Rows[i-1].Simulated+0.02 {
			t.Error("simulated curve not (approximately) monotone")
		}
	}
	for _, r := range res.Rows {
		if r.Simulated > 0.02 && (r.Predicted > 5*r.Simulated || r.Simulated > 5*r.Predicted+0.05) {
			t.Errorf("cache %d KiB: predicted %.3f vs simulated %.3f diverge",
				r.CacheKB, r.Predicted, r.Simulated)
		}
	}
}

func TestTable2Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	if len(res.Rows) < 6 {
		t.Fatalf("rows = %d, want one per benchmark family", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.BinarySize <= 0 {
			t.Errorf("%s: binary size %d", r.Name, r.BinarySize)
		}
		if r.Analysis1 <= 0 || r.Analysis2 <= 0 {
			t.Errorf("%s: analysis times %v/%v", r.Name, r.Analysis1, r.Analysis2)
		}
	}
	// The IR path (µbenchmarks) is the only one with a real rewriter.
	if res.Rows[0].Instrument <= 0 {
		t.Error("µbenchmark instrumentation time missing")
	}
}

func TestAblationPacking(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := AblationPacking(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	st := res.Stats
	if st.Events == 0 {
		t.Fatal("no events measured")
	}
	if st.VarintBytes >= st.Fixed64Bytes || st.Packed32Bytes >= st.Fixed64Bytes {
		t.Errorf("compression schemes should beat fixed width: varint %d, packed32 %d, fixed %d",
			st.VarintBytes, st.Packed32Bytes, st.Fixed64Bytes)
	}
	// Heap addresses share high halves: the paper's 32-bit suggestion is
	// viable on this workload.
	if st.Fit32Frac < 0.9 {
		t.Errorf("fit32 = %.2f, want high for heap-local addresses", st.Fit32Frac)
	}
}

// TestBenchRuns pins the gated benchmark suite: every gated metric is
// measured, and the streamed ingest matches the buffered build (the
// hash check inside streamIngest) at both capture scales. The memory
// claim itself: the streamed path's transient overhead must not grow
// with the capture the way the buffered path's does.
func TestBenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Quick()
	s.MicroAccesses, s.MicroReps = 1024, 20 // keep the 10x capture small
	res, err := Bench(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Text)
	if len(res.Gate) != 9 {
		t.Fatalf("gate metrics = %d, want 9", len(res.Gate))
	}
	if got := res.Gate[2].Name; got != "sweep" {
		t.Errorf("gate[2] = %q, want sweep", got)
	}
	if got := res.Gate[3].Name; got != "diff_served" {
		t.Errorf("gate[3] = %q, want diff_served", got)
	}
	if got := res.Gate[4].Name; got != "cluster_proxy" {
		t.Errorf("gate[4] = %q, want cluster_proxy", got)
	}
	if got := res.Gate[5].Name; got != "cluster_failover" {
		t.Errorf("gate[5] = %q, want cluster_failover", got)
	}
	if got := res.Gate[6].Name; got != "warm_boot" {
		t.Errorf("gate[6] = %q, want warm_boot", got)
	}
	if got := res.Gate[7].Name; got != "encode_v3" {
		t.Errorf("gate[7] = %q, want encode_v3", got)
	}
	if got := res.Gate[8].Name; got != "serve_subset" {
		t.Errorf("gate[8] = %q, want serve_subset", got)
	}
	if res.EncodedV3Bytes <= 0 || res.EncodedV3Bytes >= res.EncodedV2Bytes {
		t.Errorf("v3 O0 wire size %dB not smaller than v2 %dB", res.EncodedV3Bytes, res.EncodedV2Bytes)
	}
	for _, m := range res.Gate {
		if m.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %d", m.Name, m.NsPerOp)
		}
	}
	if len(res.Stream) != 2 {
		t.Fatalf("stream points = %d, want 2", len(res.Stream))
	}
	small, big := res.Stream[0], res.Stream[1]
	if big.CaptureBytes < 5*small.CaptureBytes {
		t.Errorf("10x capture only %dB vs %dB", big.CaptureBytes, small.CaptureBytes)
	}
	// The buffered path must at least hold the whole capture transiently;
	// the streamed one must not. Heap sampling is noisy at toy sizes, so
	// only assert the structural bound, not a tight ratio.
	if big.StreamedOverhead > big.BufferedOverhead+big.CaptureBytes/2 &&
		big.StreamedOverhead > 8<<20 {
		t.Errorf("streamed overhead %dB exceeds buffered %dB on a %dB capture",
			big.StreamedOverhead, big.BufferedOverhead, big.CaptureBytes)
	}
}
