// Command memgaze-bench regenerates the MemGaze paper's evaluation: every
// table and figure of §VI and §VII plus the ablations DESIGN.md calls
// out, printed in the paper's layout.
//
//	memgaze-bench                  # run everything at full sizes
//	memgaze-bench -quick           # test sizes (seconds)
//	memgaze-bench -run fig6,table4 # a subset
//
// With -json or -gate the command instead runs the regression-gated
// benchmark suite: -json writes machine-readable results (the committed
// BENCH_9.json baseline format) and -gate compares against a baseline,
// exiting nonzero if a gated benchmark regressed beyond -gate-threshold
// percent.
//
//	memgaze-bench -quick -json BENCH_new.json -gate BENCH_9.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/memgaze/memgaze-go/internal/experiments"
)

type experiment struct {
	name string
	run  func(experiments.Sizes) (string, error)
}

func text[T any](f func(experiments.Sizes) (T, error), get func(T) string) func(experiments.Sizes) (string, error) {
	return func(s experiments.Sizes) (string, error) {
		r, err := f(s)
		if err != nil {
			return "", err
		}
		return get(r), nil
	}
}

func main() {
	quick := flag.Bool("quick", false, "use test-scale sizes")
	outPath := flag.String("o", "", "also write the report to this file")
	run := flag.String("run", "all", "comma-separated experiments (fig6,fig7,table2,table3,table4,table5,table6,table7,table8,table9,fig8,fig9,ablations,extras)")
	jsonPath := flag.String("json", "", "run the gated benchmark suite and write JSON results to this path")
	gatePath := flag.String("gate", "", "baseline JSON to gate against; exit nonzero on regression")
	threshold := flag.Float64("gate-threshold", 20, "allowed regression percent vs the -gate baseline")
	flag.Parse()

	sizes := experiments.Full()
	if *quick {
		sizes = experiments.Quick()
	}

	if *jsonPath != "" || *gatePath != "" {
		if err := runBenchGate(sizes, *jsonPath, *gatePath, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	exps := []experiment{
		{"fig6", text(experiments.Fig6, func(r *experiments.Fig6Result) string { return r.Text })},
		{"fig7", text(experiments.Fig7, func(r *experiments.Fig7Result) string { return r.Text })},
		{"table2", text(experiments.Table2, func(r *experiments.Table2Result) string { return r.Text })},
		{"table3", text(experiments.Table3, func(r *experiments.Table3Result) string { return r.Text })},
		{"table4", text(experiments.Table4, func(r *experiments.CaseStudyResult) string { return r.Text })},
		{"table5", text(experiments.Table5, func(r *experiments.CaseStudyResult) string { return r.Text })},
		{"table6", text(experiments.Table6, func(r *experiments.CaseStudyResult) string { return r.Text })},
		{"table7", text(experiments.Table7, func(r *experiments.CaseStudyResult) string { return r.Text })},
		{"table8", text(experiments.Table8, func(r *experiments.Table8Result) string { return r.Text })},
		{"table9", text(experiments.Table9, func(r *experiments.CaseStudyResult) string { return r.Text })},
		{"fig8", text(experiments.Fig8, func(r *experiments.Fig8Result) string { return r.Text })},
		{"fig9", text(experiments.Fig9, func(r *experiments.Fig9Result) string { return r.Text })},
		{"ablations", runAblations},
		{"extras", text(experiments.Extras, func(r *experiments.ExtrasResult) string { return r.Text })},
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(n)] = true
	}
	all := want["all"]

	var report strings.Builder
	failed := false
	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		t0 := time.Now()
		out, err := e.run(sizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = true
			continue
		}
		section := fmt.Sprintf("==== %s (%.1fs) ====\n%s\n", e.name, time.Since(t0).Seconds(), out)
		fmt.Print(section)
		report.WriteString(section)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *outPath, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runBenchGate runs the gated benchmark suite, optionally writes the
// JSON results, and optionally compares gated metrics against a
// committed baseline, matching rows by name. A gated row the baseline
// lacks fails the gate; a baseline row the run lacks is ignored.
func runBenchGate(sizes experiments.Sizes, jsonPath, gatePath string, threshold float64) error {
	res, err := experiments.Bench(sizes)
	if err != nil {
		return err
	}
	fmt.Print(res.Text)

	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("results written to %s\n", jsonPath)
	}

	if gatePath == "" {
		return nil
	}
	raw, err := os.ReadFile(gatePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base experiments.BenchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", gatePath, err)
	}
	if !gateOK(os.Stdout, res.Gate, base.Gate, threshold) {
		return fmt.Errorf("gated benchmarks regressed beyond %.0f%% of %s, or are missing from it", threshold, gatePath)
	}
	return nil
}

// gateOK prints one line per gated metric of cur against base and
// reports whether none regressed beyond threshold percent and every
// row of cur has a baseline.
func gateOK(w io.Writer, cur, base []experiments.BenchMetric, threshold float64) bool {
	baseline := map[string]experiments.BenchMetric{}
	for _, m := range base {
		baseline[m.Name] = m
	}
	ok := true
	check := func(name, unit string, cur, old int64) {
		pct := 100 * (float64(cur) - float64(old)) / float64(old)
		verdict := "ok"
		if pct > threshold {
			verdict = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(w, "gate %-14s %12d %-9s baseline %12d  %+6.1f%%  %s\n",
			name, cur, unit, old, pct, verdict)
	}
	for _, m := range cur {
		old, found := baseline[m.Name]
		if !found || old.NsPerOp <= 0 {
			// A row the baseline lacks would otherwise never be gated:
			// re-record the baseline with it.
			fmt.Fprintf(w, "gate %-14s %12d ns/op     MISSING from the baseline\n", m.Name, m.NsPerOp)
			ok = false
			continue
		}
		check(m.Name, "ns/op", m.NsPerOp, old.NsPerOp)
		// Allocation metrics gate only when both sides recorded them,
		// so pre-PR-10 baselines still parse and gate latency alone.
		if old.AllocsPerOp > 0 && m.AllocsPerOp > 0 {
			check(m.Name, "allocs/op", m.AllocsPerOp, old.AllocsPerOp)
		}
		if old.BytesPerOp > 0 && m.BytesPerOp > 0 {
			check(m.Name, "B/op", m.BytesPerOp, old.BytesPerOp)
		}
	}
	return ok
}

func runAblations(s experiments.Sizes) (string, error) {
	var b strings.Builder
	comp, err := experiments.AblationCompression(s)
	if err != nil {
		return "", err
	}
	b.WriteString(comp.Text)
	b.WriteByte('\n')
	sweep, err := experiments.AblationSweep(s)
	if err != nil {
		return "", err
	}
	b.WriteString(sweep.Text)
	b.WriteByte('\n')
	zc, err := experiments.AblationZoomContiguity(s)
	if err != nil {
		return "", err
	}
	b.WriteString(zc.Text)
	b.WriteByte('\n')
	bs, err := experiments.AblationBlockSize(s)
	if err != nil {
		return "", err
	}
	b.WriteString(bs.Text)
	b.WriteByte('\n')
	par, err := experiments.AblationParallel(s)
	if err != nil {
		return "", err
	}
	b.WriteString(par.Text)
	b.WriteByte('\n')
	bld, err := experiments.AblationBuild(s)
	if err != nil {
		return "", err
	}
	b.WriteString(bld.Text)
	b.WriteByte('\n')
	til, err := experiments.AblationGemmTiling(s)
	if err != nil {
		return "", err
	}
	b.WriteString(til.Text)
	b.WriteByte('\n')
	mrc, err := experiments.AblationMRC(s)
	if err != nil {
		return "", err
	}
	b.WriteString(mrc.Text)
	b.WriteByte('\n')
	pk, err := experiments.AblationPacking(s)
	if err != nil {
		return "", err
	}
	b.WriteString(pk.Text)
	return b.String(), nil
}
