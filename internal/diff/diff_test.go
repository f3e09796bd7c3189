package diff

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/core"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/workloads/micro"
)

// synthTrace builds a deterministic sampled trace; different seeds give
// different traces with overlapping function and address sets.
func synthTrace(seed int64, samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	procs := []string{"alpha", "beta", "gamma", "delta"}
	tr := &trace.Trace{
		Module: "synth", Mode: "sampled", Period: 10_000,
		TotalLoads: uint64(samples) * 10_000,
	}
	for s := 0; s < samples; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recs; i++ {
			var addr uint64
			if rng.Intn(4) == 0 {
				addr = 0x4000_0000 + uint64(rng.Intn(1<<14))*64
			} else {
				addr = 0x2000_0000 + uint64(rng.Intn(1<<10))*8
			}
			smp.Records = append(smp.Records, trace.Record{
				TS:    uint64(s*recs+i) * 3,
				IP:    0x401000 + uint64(rng.Intn(64))*8,
				Addr:  addr,
				Class: dataflow.Class(rng.Intn(3)),
				Proc:  procs[rng.Intn(len(procs))],
				Line:  int32(rng.Intn(20)),
			})
		}
		tr.AppendSample(smp)
	}
	return tr
}

func runReport(t *testing.T, tr *trace.Trace) *engine.Report {
	t.Helper()
	rep, err := engine.New(tr, engine.WithAnalyses(DiffAnalyses()...)).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDiffSameTraceZero pins the identity invariant: Diff(a, a) is
// exactly zero in every delta, flags nothing significant, and reports
// nothing one-sided.
func TestDiffSameTraceZero(t *testing.T) {
	rep := runReport(t, synthTrace(1, 12, 90))
	d := Diff(rep, rep)

	if d.A != d.B {
		t.Errorf("identities differ: %+v vs %+v", d.A, d.B)
	}
	if len(d.MRC) == 0 || len(d.Functions) == 0 || len(d.Growth) == 0 || len(d.Regions) == 0 {
		t.Fatalf("self-diff missing sections: mrc=%d funcs=%d growth=%d regions=%d",
			len(d.MRC), len(d.Functions), len(d.Growth), len(d.Regions))
	}
	for _, m := range d.MRC {
		if m.Delta != 0 || m.A != m.B {
			t.Errorf("mrc[%d]: delta %v, a %v, b %v; want zero delta", m.CacheBlocks, m.Delta, m.A, m.B)
		}
		if m.Significant {
			t.Errorf("mrc[%d]: self-diff flagged significant (lo %v, hi %v)", m.CacheBlocks, m.Lo, m.Hi)
		}
		if m.Lo > 0 || m.Hi < 0 {
			t.Errorf("mrc[%d]: bracket [%v, %v] excludes zero", m.CacheBlocks, m.Lo, m.Hi)
		}
	}
	for _, p := range d.Growth {
		if p.Delta != 0 {
			t.Errorf("growth t=%v: delta %v, want 0", p.T, p.Delta)
		}
	}
	if d.GrowthDivergence != 0 {
		t.Errorf("growth divergence %v, want 0", d.GrowthDivergence)
	}
	for _, s := range append(append([]SymbolShift{}, d.Functions...), d.Lines...) {
		if s.OnlyIn != "" {
			t.Errorf("symbol %q one-sided in self-diff", s.Name)
		}
		if s.DLoads != 0 || s.DF != 0 || s.DGrowth != 0 || s.DDist != 0 {
			t.Errorf("symbol %q: nonzero deltas %v %v %v %v", s.Name, s.DLoads, s.DF, s.DGrowth, s.DDist)
		}
	}
	for i, r := range d.Regions {
		if r.OnlyIn != "" {
			t.Errorf("region %d one-sided in self-diff: %+v", i, r)
		}
		if r.DAcc != 0 || r.DPct != 0 || r.DDist != 0 {
			t.Errorf("region %d: nonzero deltas %+v", i, r)
		}
	}
}

// swapRegion mirrors a RegionShift's sides, negating its deltas — what
// the corresponding row of Diff(b, a) must look like.
func swapRegion(r RegionShift) RegionShift {
	// Negating a zero delta yields IEEE −0, which is numerically equal
	// but JSON-distinct; normalize so the canonical forms compare.
	neg := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return -v
	}
	switch r.OnlyIn {
	case "a":
		r.OnlyIn = "b"
	case "b":
		r.OnlyIn = "a"
	}
	r.LoA, r.LoB = r.LoB, r.LoA
	r.HiA, r.HiB = r.HiB, r.HiA
	r.AccA, r.AccB, r.DAcc = r.AccB, r.AccA, -r.DAcc
	r.PctA, r.PctB, r.DPct = r.PctB, r.PctA, neg(r.DPct)
	r.DistA, r.DistB, r.DDist = r.DistB, r.DistA, neg(r.DDist)
	return r
}

// TestDiffAntisymmetric pins the swap invariant: Diff(b, a) negates
// every delta of Diff(a, b), swaps every one-sided marker, and flags the
// same rows significant.
func TestDiffAntisymmetric(t *testing.T) {
	ra := runReport(t, synthTrace(2, 12, 90))
	rb := runReport(t, synthTrace(9, 10, 70))
	ab := Diff(ra, rb)
	ba := Diff(rb, ra)

	// MRC: align by capacity.
	baMRC := make(map[int]MRCDelta, len(ba.MRC))
	for _, m := range ba.MRC {
		baMRC[m.CacheBlocks] = m
	}
	if len(ab.MRC) == 0 || len(ab.MRC) != len(ba.MRC) {
		t.Fatalf("mrc lengths: ab %d, ba %d", len(ab.MRC), len(ba.MRC))
	}
	for _, m := range ab.MRC {
		o, ok := baMRC[m.CacheBlocks]
		if !ok {
			t.Fatalf("capacity %d missing from reversed diff", m.CacheBlocks)
		}
		if o.Delta != -m.Delta || o.A != m.B || o.B != m.A {
			t.Errorf("mrc[%d]: reversed delta %v, want %v", m.CacheBlocks, o.Delta, -m.Delta)
		}
		if o.Lo != -m.Hi || o.Hi != -m.Lo {
			t.Errorf("mrc[%d]: reversed bracket [%v, %v], want [%v, %v]", m.CacheBlocks, o.Lo, o.Hi, -m.Hi, -m.Lo)
		}
		if o.Significant != m.Significant {
			t.Errorf("mrc[%d]: significance flips under swap", m.CacheBlocks)
		}
	}

	// Growth: same axis, negated deltas, equal divergence.
	if len(ab.Growth) != len(ba.Growth) {
		t.Fatalf("growth lengths: ab %d, ba %d", len(ab.Growth), len(ba.Growth))
	}
	for i, p := range ab.Growth {
		o := ba.Growth[i]
		if o.T != p.T || o.Delta != -p.Delta || o.A != p.B || o.B != p.A {
			t.Errorf("growth[%d]: %+v is not the mirror of %+v", i, o, p)
		}
	}
	if ab.GrowthDivergence != ba.GrowthDivergence {
		t.Errorf("growth divergence differs under swap: %v vs %v", ab.GrowthDivergence, ba.GrowthDivergence)
	}

	// Symbols: align by name; the rank order itself must also be the
	// same, since every sort key is symmetric in (a, b).
	for _, sec := range []struct {
		name   string
		fwd, r []SymbolShift
	}{{"functions", ab.Functions, ba.Functions}, {"lines", ab.Lines, ba.Lines}} {
		if len(sec.fwd) != len(sec.r) {
			t.Fatalf("%s lengths: ab %d, ba %d", sec.name, len(sec.fwd), len(sec.r))
		}
		for i, s := range sec.fwd {
			o := sec.r[i]
			if o.Name != s.Name {
				t.Fatalf("%s[%d]: rank order changed under swap (%q vs %q)", sec.name, i, s.Name, o.Name)
			}
			wantOnly := map[string]string{"": "", "a": "b", "b": "a"}[s.OnlyIn]
			if o.OnlyIn != wantOnly {
				t.Errorf("%s %q: only_in %q under swap, want %q", sec.name, s.Name, o.OnlyIn, wantOnly)
			}
			if o.DLoads != -s.DLoads || o.DF != -s.DF || o.DGrowth != -s.DGrowth || o.DDist != -s.DDist {
				t.Errorf("%s %q: deltas not negated under swap", sec.name, s.Name)
			}
			if o.LoadsA != s.LoadsB || o.LoadsB != s.LoadsA || o.FstrPctA != s.FstrPctB {
				t.Errorf("%s %q: sides not swapped", sec.name, s.Name)
			}
		}
	}

	// Regions: mirroring every reversed row must reproduce the forward
	// rows as a set (ties in the symmetric sort key may reorder).
	if len(ab.Regions) != len(ba.Regions) {
		t.Fatalf("region lengths: ab %d, ba %d", len(ab.Regions), len(ba.Regions))
	}
	canon := func(rs []RegionShift, swap bool) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			if swap {
				r = swapRegion(r)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		sort.Strings(out)
		return out
	}
	fwd, rev := canon(ab.Regions, false), canon(ba.Regions, true)
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Errorf("region row %d not mirrored under swap:\n fwd %s\n rev %s", i, fwd[i], rev[i])
		}
	}
}

// TestDiffOneSidedSymbols pins the join semantics on hand-built
// Reports: a symbol missing from one side is reported one-sided with
// the missing columns zero, and confidence flags from either side mark
// the shift low-confidence.
func TestDiffOneSidedSymbols(t *testing.T) {
	ra := &engine.Report{
		FunctionDiags: []*analysis.Diag{
			{Name: "shared", EstLoads: 100, F: 640, DeltaF: 1.5, D: 4},
			{Name: "onlyA", EstLoads: 40, F: 320, DeltaF: 0.5, D: 2},
		},
		Confidence: []analysis.Confidence{
			{Name: "onlyA", Flagged: true, Reason: "undersampled"},
		},
	}
	rb := &engine.Report{
		FunctionDiags: []*analysis.Diag{
			{Name: "shared", EstLoads: 80, F: 400, DeltaF: 1.0, D: 6},
			{Name: "onlyB", EstLoads: 10, F: 64, DeltaF: 0.25, D: 1},
		},
	}
	d := Diff(ra, rb)
	if len(d.Functions) != 3 {
		t.Fatalf("got %d function shifts, want 3", len(d.Functions))
	}
	byName := make(map[string]SymbolShift, 3)
	for _, s := range d.Functions {
		byName[s.Name] = s
	}

	sh := byName["shared"]
	if sh.OnlyIn != "" || sh.DLoads != 20 || sh.DF != 240 || sh.DGrowth != 0.5 || sh.DDist != -2 {
		t.Errorf("shared: %+v", sh)
	}
	oa := byName["onlyA"]
	if oa.OnlyIn != "a" || oa.LoadsB != 0 || oa.FB != 0 || oa.DLoads != 40 || oa.DF != 320 {
		t.Errorf("onlyA: %+v", oa)
	}
	if !oa.LowConfidence || oa.Reason != "a: undersampled" {
		t.Errorf("onlyA confidence: low=%v reason=%q", oa.LowConfidence, oa.Reason)
	}
	ob := byName["onlyB"]
	if ob.OnlyIn != "b" || ob.LoadsA != 0 || ob.DLoads != -10 || ob.DF != -64 || ob.DDist != -1 {
		t.Errorf("onlyB: %+v", ob)
	}
	if ob.LowConfidence {
		t.Errorf("onlyB flagged low-confidence with no flags present")
	}

	// Rank: |ΔŴ| descending — onlyA (40) > shared (20) > onlyB (10).
	for i, want := range []string{"onlyA", "shared", "onlyB"} {
		if d.Functions[i].Name != want {
			t.Errorf("rank %d: %q, want %q", i, d.Functions[i].Name, want)
		}
	}
}

// TestDiffMRCSignificance pins the interval arithmetic on hand-built
// curves: the bracket is [aLo − bHi, aHi − bLo], and only deltas whose
// bracket excludes zero are flagged.
func TestDiffMRCSignificance(t *testing.T) {
	ra := &engine.Report{
		MRC: []analysis.MRCPoint{{CacheBlocks: 64, MissRatio: 0.5}, {CacheBlocks: 128, MissRatio: 0.3}, {CacheBlocks: 256, MissRatio: 0.2}},
		MRCBounds: []analysis.MRCBound{
			{CacheBlocks: 64, Lo: 0.45, Hi: 0.55},
			{CacheBlocks: 128, Lo: 0.25, Hi: 0.35},
		},
	}
	rb := &engine.Report{
		MRC: []analysis.MRCPoint{{CacheBlocks: 64, MissRatio: 0.2}, {CacheBlocks: 128, MissRatio: 0.28}, {CacheBlocks: 512, MissRatio: 0.1}},
		MRCBounds: []analysis.MRCBound{
			{CacheBlocks: 64, Lo: 0.15, Hi: 0.25},
			{CacheBlocks: 128, Lo: 0.2, Hi: 0.36},
		},
	}
	d := Diff(ra, rb)
	if len(d.MRC) != 2 {
		t.Fatalf("got %d aligned capacities, want 2 (the intersection)", len(d.MRC))
	}

	m := d.MRC[0]
	if m.CacheBlocks != 64 || m.Delta != 0.3 {
		t.Fatalf("mrc[0]: %+v", m)
	}
	if m.Lo != 0.45-0.25 || m.Hi != 0.55-0.15 {
		t.Errorf("mrc[64] bracket [%v, %v], want [0.2, 0.4]", m.Lo, m.Hi)
	}
	if !m.Significant {
		t.Errorf("mrc[64]: bracket excludes zero but not flagged")
	}

	m = d.MRC[1]
	if m.CacheBlocks != 128 {
		t.Fatalf("mrc[1]: %+v", m)
	}
	// [0.25 − 0.36, 0.35 − 0.2] = [−0.11, 0.15] straddles zero.
	if m.Significant {
		t.Errorf("mrc[128]: bracket straddles zero but flagged significant")
	}
}

// TestDiffTopK pins the truncation option.
func TestDiffTopK(t *testing.T) {
	ra := runReport(t, synthTrace(2, 12, 90))
	rb := runReport(t, synthTrace(9, 10, 70))
	full := Diff(ra, rb)
	if len(full.Functions) < 3 {
		t.Skipf("only %d function shifts; need 3 to exercise truncation", len(full.Functions))
	}
	top := Diff(ra, rb, WithTopK(2))
	if len(top.Functions) != 2 {
		t.Fatalf("top-2 diff has %d function shifts", len(top.Functions))
	}
	for i := range top.Functions {
		if top.Functions[i] != full.Functions[i] {
			t.Errorf("truncation changed row %d", i)
		}
	}
}

// TestDiffTraces pins the trace-level entry point against composing the
// pieces by hand, and its default analysis suite.
func TestDiffTraces(t *testing.T) {
	ta := synthTrace(2, 10, 70)
	tb := synthTrace(9, 8, 60)
	got, err := DiffTraces(t.Context(), ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	want := Diff(runReport(t, ta), runReport(t, tb))
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Errorf("DiffTraces differs from composed Diff (%d vs %d bytes)", len(gb), len(wb))
	}
}

// TestDiffToolchainTraces runs the paper's core comparison end to end:
// the same microworkload compiled at O0 and O3, traced and diffed. The
// diff must surface per-function load-count shifts and aligned MRC
// deltas — the Tables IV–IX reading of two traces.
func TestDiffToolchainTraces(t *testing.T) {
	specs := map[micro.OptLevel]*trace.Trace{}
	for _, opt := range []micro.OptLevel{micro.O0, micro.O3} {
		spec := micro.Suite(opt, 512, 6)[0]
		cfg := core.DefaultConfig()
		cfg.Period = 700
		r, err := core.Run(core.FuncWorkload{WName: spec.Name(), BuildFn: spec.Build}, cfg)
		if err != nil {
			t.Fatalf("core.Run(%s): %v", spec.Name(), err)
		}
		specs[opt] = r.Trace
	}

	d, err := DiffTraces(t.Context(), specs[micro.O0], specs[micro.O3])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MRC) == 0 {
		t.Error("O0 vs O3 diff has no aligned MRC capacities")
	}
	if len(d.Functions) == 0 {
		t.Fatal("O0 vs O3 diff has no function shifts")
	}
	var shifted bool
	for _, s := range d.Functions {
		if s.DLoads != 0 {
			shifted = true
			break
		}
	}
	if !shifted {
		t.Error("O0 vs O3 diff shows no load-count shift in any function")
	}
}

// TestDiffReadsOnlyReportFields pins ReportFields against Diff: with
// every Report field zeroed except the identity and ReportFields, Diff
// answers byte-identically — so a caller decoding only those fields
// (memgazed's diff over cached fragments) loses nothing.
func TestDiffReadsOnlyReportFields(t *testing.T) {
	full := func(tr *trace.Trace) *engine.Report {
		opts := []engine.Option{engine.WithAnalyses(engine.AllAnalyses()...)}
		rep, err := engine.New(tr, opts...).Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	reduce := func(rep *engine.Report) *engine.Report {
		keep := map[string]bool{}
		for _, name := range append(append([]string{}, engine.IdentityFields...), ReportFields...) {
			keep[name] = true
		}
		out := *rep
		v := reflect.ValueOf(&out).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !keep[v.Type().Field(i).Name] {
				v.Field(i).SetZero()
			}
		}
		return &out
	}
	ra, rb := full(synthTrace(4, 12, 90)), full(synthTrace(8, 10, 70))
	want, err := json.Marshal(Diff(ra, rb, WithTopK(3)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(Diff(reduce(ra), reduce(rb), WithTopK(3)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("Diff reads a field outside ReportFields:\nreduced %s\nfull    %s", got, want)
	}
}
