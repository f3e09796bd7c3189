// Command memgaze is the MemGaze-Go toolchain driver, mirroring the
// paper's pipeline (Fig. 1):
//
//	memgaze list                              — available workloads
//	memgaze instrument -workload micro:str1   — static analysis + rewriting (IR workloads)
//	memgaze trace -workload gap:pr -o pr.mgt  — run under a collector, save the trace
//	memgaze analyze -trace pr.mgt             — diagnostics, windows, zoom tree
//
// Traces are saved in the MGTR binary format (internal/trace) next to a
// JSON annotation file, so analyze runs offline like the real tool.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	memgaze "github.com/memgaze/memgaze-go"
	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/cache"
	"github.com/memgaze/memgaze-go/internal/core"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/isa"
	"github.com/memgaze/memgaze-go/internal/mem"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/report"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/workloads/darknet"
	"github.com/memgaze/memgaze-go/internal/workloads/gap"
	"github.com/memgaze/memgaze-go/internal/workloads/micro"
	"github.com/memgaze/memgaze-go/internal/workloads/minivite"
	"github.com/memgaze/memgaze-go/internal/workloads/sites"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "instrument":
		err = cmdInstrument(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "upload":
		err = cmdUpload(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "memgaze: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "memgaze: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: memgaze <command> [flags]

commands:
  list        list built-in workloads
  instrument  statically analyse and rewrite an IR workload binary or .s file
  trace       execute a workload under a trace collector and save the trace
  analyze     run MemGaze analyses over a saved trace
  dump        print a saved trace's records (perf-script style)
  convert     rewrite a .mgt file in the current (v3 columnar) wire format
  compare     side-by-side function diagnostics of two traces
  diff        full cross-trace diff: function/MRC/growth/region deltas (local or served)
  upload      ship a trace or PT capture to a memgazed service

run "memgaze <command> -h" for flags.
`)
}

func cmdList() error {
	fmt.Println(`IR workloads (full binary pipeline):
  micro:str1 micro:str2 micro:str8 micro:irr micro:ptr
  micro:str1|irr micro:str1/irr micro:str8/ptr        (suffix -O0 for unoptimised)

application workloads (sites pipeline):
  minivite:v1 minivite:v2 minivite:v3                 (suffix -O0)
  gap:pr gap:pr-spmv gap:cc gap:cc-sv                 (suffix -O0)
  darknet:alexnet darknet:resnet`)
	return nil
}

// microSpec parses micro:<pattern>[-O0].
func microSpec(name string, accesses, reps int) (micro.Spec, bool) {
	opt := micro.O3
	if strings.HasSuffix(name, "-O0") {
		opt = micro.O0
		name = strings.TrimSuffix(name, "-O0")
	}
	name = strings.TrimSuffix(name, "-O3")
	for _, s := range micro.Suite(opt, accesses, reps) {
		if strings.TrimSuffix(strings.TrimSuffix(s.Name(), "-O3"), "-O0") == name {
			return s, true
		}
	}
	return micro.Spec{}, false
}

type workloadFlags struct {
	scale, degree, reps, accesses, shrink int
	cacheKB                               int
}

func (wf *workloadFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&wf.scale, "scale", 10, "graph scale (log2 vertices)")
	fs.IntVar(&wf.degree, "degree", 8, "graph average degree")
	fs.IntVar(&wf.reps, "reps", 50, "micro-benchmark repetitions")
	fs.IntVar(&wf.accesses, "accesses", 2048, "micro-benchmark accesses per pass")
	fs.IntVar(&wf.shrink, "shrink", 16, "darknet per-axis shrink factor")
	fs.IntVar(&wf.cacheKB, "cache-kb", 32, "cache model size in KiB (0 disables)")
}

// buildApp resolves an application workload name.
func (wf *workloadFlags) buildApp(name string) (core.App, []analysis.Region, error) {
	var cc *cache.Config
	if wf.cacheKB > 0 {
		c := cache.DefaultConfig()
		c.SizeBytes = wf.cacheKB << 10
		cc = &c
	}
	opt3 := !strings.HasSuffix(name, "-O0")
	base := strings.TrimSuffix(strings.TrimSuffix(name, "-O0"), "-O3")
	switch {
	case strings.HasPrefix(base, "minivite:"):
		v := map[string]minivite.Variant{"v1": minivite.V1, "v2": minivite.V2, "v3": minivite.V3}[strings.TrimPrefix(base, "minivite:")]
		if v == 0 {
			return core.App{}, nil, fmt.Errorf("unknown miniVite variant in %q", name)
		}
		o := minivite.O0
		if opt3 {
			o = minivite.O3
		}
		w := minivite.New(minivite.Config{Scale: wf.scale, Degree: wf.degree, Variant: v, Opt: o}, true)
		return core.App{Name: w.Name(), Mod: w.Mod,
			Exec: func(r *sites.Runner) { w.Run(r) }, CacheCfg: cc}, w.Regions(), nil
	case strings.HasPrefix(base, "gap:"):
		algo, ok := map[string]gap.Algorithm{
			"pr": gap.PR, "pr-spmv": gap.PRSpmv, "cc": gap.CC, "cc-sv": gap.CCSV,
		}[strings.TrimPrefix(base, "gap:")]
		if !ok {
			return core.App{}, nil, fmt.Errorf("unknown GAP kernel in %q", name)
		}
		o := gap.O0
		if opt3 {
			o = gap.O3
		}
		w := gap.New(gap.Config{Scale: wf.scale, Degree: wf.degree, Algo: algo, Opt: o}, true)
		return core.App{Name: w.Name(), Mod: w.Mod,
			Exec: func(r *sites.Runner) { w.Run(r) }, CacheCfg: cc}, w.Regions(), nil
	case strings.HasPrefix(base, "darknet:"):
		model := darknet.AlexNet
		if strings.Contains(base, "resnet") {
			model = darknet.ResNet152
		}
		w := darknet.New(darknet.Config{Model: model, Shrink: wf.shrink})
		return core.App{Name: w.Name(), Mod: w.Mod,
			Exec: func(r *sites.Runner) { w.Run(r) }, CacheCfg: cc}, w.Regions(), nil
	}
	return core.App{}, nil, fmt.Errorf("unknown workload %q (try 'memgaze list')", name)
}

func cmdInstrument(args []string) error {
	fs := flag.NewFlagSet("instrument", flag.ExitOnError)
	var wf workloadFlags
	wf.register(fs)
	name := fs.String("workload", "micro:str1", "IR workload to instrument")
	file := fs.String("file", "", "assembly file to instrument instead of a built-in workload")
	disasm := fs.Bool("disasm", false, "print instrumented disassembly")
	annOut := fs.String("annotations", "", "write annotation file (JSON)")
	fs.Parse(args)

	var prog *isa.Program
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err := isa.Parse(*file, f)
		if err != nil {
			return err
		}
		prog = p
	} else {
		spec, ok := microSpec(strings.TrimPrefix(*name, "micro:"), wf.accesses, wf.reps)
		if !ok {
			return fmt.Errorf("instrument supports IR workloads (micro:*) or -file; got %q", *name)
		}
		p, _, err := spec.Build()
		if err != nil {
			return err
		}
		prog = p
	}
	out, classes, err := core.Instrument(prog, instrument.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("module %s: %d instrs, %d B text -> %d instrs, %d B instrumented\n",
		prog.Name, prog.NumInstrs(), prog.Size(), out.Prog.NumInstrs(), out.Prog.Size())
	var counts [3]int
	for _, li := range classes.Loads {
		counts[li.Class]++
	}
	fmt.Printf("loads: %d constant, %d strided, %d irregular; %d ptwrites inserted, %d constants elided\n",
		counts[dataflow.Constant], counts[dataflow.Strided], counts[dataflow.Irregular],
		out.Notes.NumPTWrites, out.Notes.NumConstElided)
	if *annOut != "" {
		if err := out.Notes.Save(*annOut); err != nil {
			return err
		}
		fmt.Printf("annotations written to %s\n", *annOut)
	}
	if *disasm {
		fmt.Println(out.Prog.Disasm())
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var wf workloadFlags
	wf.register(fs)
	name := fs.String("workload", "gap:pr", "workload to trace")
	file := fs.String("file", "", "assembly file to trace instead of a built-in workload")
	mode := fs.String("mode", "sampled", "collector: sampled, opt, or full")
	period := fs.Uint64("period", 10_000, "sampling period in loads")
	buf := fs.Int("buf", 8<<10, "trace buffer bytes")
	out := fs.String("o", "trace.mgt", "output trace file")
	roi := fs.String("hw-filter", "", "comma-separated procedures for PT hardware guards")
	stats := fs.Bool("stats", false, "print decode statistics (bytes, resyncs, losses)")
	workers := fs.Int("build-workers", 0, "samples decoded concurrently when building the trace (0 = GOMAXPROCS)")
	fs.Parse(args)

	cfg := core.DefaultConfig()
	cfg.Period = *period
	cfg.BufBytes = *buf
	cfg.BuildWorkers = *workers
	switch *mode {
	case "sampled":
		cfg.Mode = pt.ModeContinuous
	case "opt":
		cfg.Mode = pt.ModeSampledPT
	case "full":
		cfg.Mode = pt.ModeFull
		cfg.CopyBytesPerCycle = 1.2
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *roi != "" {
		cfg.HWFilterProcs = strings.Split(*roi, ",")
	}

	var tr *trace.Trace
	var ds pt.DecodeStats
	var overhead, ptwRatio float64
	if *file != "" {
		path := *file
		res, err := core.Run(core.FuncWorkload{WName: path, BuildFn: func() (*isa.Program, *mem.Space, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			p, err := isa.Parse(path, f)
			return p, mem.NewSpace(), err
		}}, cfg)
		if err != nil {
			return err
		}
		tr, ds, overhead, ptwRatio = res.Trace, res.Decode, res.Overhead(), res.PTWriteRatio()
	} else if strings.HasPrefix(*name, "micro:") {
		spec, ok := microSpec(strings.TrimPrefix(*name, "micro:"), wf.accesses, wf.reps)
		if !ok {
			return fmt.Errorf("unknown micro workload %q", *name)
		}
		res, err := core.Run(core.FuncWorkload{WName: spec.Name(), BuildFn: spec.Build}, cfg)
		if err != nil {
			return err
		}
		tr, ds, overhead, ptwRatio = res.Trace, res.Decode, res.Overhead(), res.PTWriteRatio()
	} else {
		app, _, err := wf.buildApp(*name)
		if err != nil {
			return err
		}
		res, err := core.RunApp(app, cfg)
		if err != nil {
			return err
		}
		tr, ds, overhead, ptwRatio = res.Trace, res.Decode, res.Overhead(), res.PTWriteRatio()
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		return err
	}
	fmt.Printf("%s: %d samples, %d records (w̄=%.0f), ρ=%.1f κ=%.3f\n",
		tr.Module, tr.NumSamples(), tr.NumRecords(), tr.MeanW(), tr.Rho(), tr.Kappa())
	fmt.Printf("trace: %s recorded (%s on disk: %s); overhead %.1f%%, ptwrite ratio %.3f\n",
		report.Bytes(tr.Bytes), *out, fileSize(*out), 100*overhead, ptwRatio)
	if tr.DroppedEvents > 0 {
		fmt.Printf("dropped events: %d (%.1f%%)\n", tr.DroppedEvents,
			100*float64(tr.DroppedEvents)/float64(tr.DroppedEvents+tr.RecordedEvents))
	}
	if *stats {
		fmt.Printf(`decode stats:
  events %d -> records %d (%d orphan, %d partial pairs)
  bytes: %s packets, %s sync framing, %s lost
  resyncs %d across %d corrupt samples; ~%d events lost
`,
			ds.Events, ds.Records, ds.OrphanEvents, ds.PartialPairs,
			report.Bytes(uint64(ds.PacketBytes)), report.Bytes(uint64(ds.SyncBytes)),
			report.Bytes(uint64(ds.SkippedBytes)),
			ds.Resyncs, ds.CorruptSamples, ds.EstLostEvents)
	}
	return nil
}

func fileSize(path string) string {
	st, err := os.Stat(path)
	if err != nil {
		return "?"
	}
	return report.Bytes(uint64(st.Size()))
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("trace", "trace.mgt", "trace file to analyse")
	block := fs.Uint64("block", 64, "access-block size in bytes")
	topK := fs.Int("top", 10, "rows per table")
	doLines := fs.Bool("lines", false, "also print per-source-line diagnostics")
	doZoom := fs.Bool("zoom", true, "run the location zoom tree")
	doWindows := fs.Bool("windows", true, "print the trace-window histogram")
	doWorkingSet := fs.Bool("working-set", true, "print the page-granularity working-set curve")
	intervals := fs.Int("intervals", 8, "time intervals for the interval-tree breakdown (0 disables)")
	doMRC := fs.Bool("mrc", false, "print the predicted LRU miss-ratio curve")
	doHeatmap := fs.Bool("heatmap", false, "render the hottest region's location × time heatmap")
	roiPct := fs.Float64("suggest-roi", 90, "suggest a region of interest covering this % of loads (0 disables)")
	fs.Parse(args)
	if *block == 0 {
		return fmt.Errorf("-block must be positive")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	fmt.Printf("module %s (%s): %d samples, %d records, ρ=%.1f κ=%.3f\n\n",
		tr.Module, tr.Mode, tr.NumSamples(), tr.NumRecords(), tr.Rho(), tr.Kappa())

	// One engine run covers the whole report: the requested analyses
	// share derived data (diagnostics, the stack-distance sweep, the
	// zoom tree) instead of each re-walking the trace.
	kinds := []memgaze.Analysis{memgaze.AnalyzeFunctions, memgaze.AnalyzeConfidence}
	if *doWindows {
		kinds = append(kinds, memgaze.AnalyzeWindows)
	}
	if *doMRC {
		kinds = append(kinds, memgaze.AnalyzeMRC)
	}
	if *doLines {
		kinds = append(kinds, memgaze.AnalyzeLines)
	}
	if *intervals > 0 {
		kinds = append(kinds, memgaze.AnalyzeIntervalTree)
	}
	if *doWorkingSet {
		kinds = append(kinds, memgaze.AnalyzeWorkingSet)
	}
	if *roiPct > 0 {
		kinds = append(kinds, memgaze.AnalyzeROI)
	}
	if *doZoom {
		kinds = append(kinds, memgaze.AnalyzeZoom)
	}
	if *doHeatmap {
		kinds = append(kinds, memgaze.AnalyzeZoom, memgaze.AnalyzeHeatmap)
	}
	rep, err := memgaze.NewAnalyzer(tr,
		memgaze.WithBlockSize(*block),
		memgaze.WithTimeIntervals(*intervals),
		memgaze.WithROICoverage(*roiPct),
		memgaze.WithAnalyses(kinds...),
	).Run(context.Background())
	if err != nil {
		return err
	}

	t := report.NewTable("Hot functions (code windows)",
		"function", "Ŵ loads", "F", "dF", "dFstr", "dFirr", "Fstr%", "Aconst%", "D")
	for i, d := range rep.FunctionDiags {
		if i >= *topK {
			break
		}
		t.Add(d.Name, report.Count(d.EstLoads), report.Count(d.F), d.DeltaF,
			d.DeltaFstr, d.DeltaFirr, d.FstrPct, d.AconstPct, d.D)
	}
	fmt.Println(t.Render())

	if *doWindows {
		h := report.NewHistogram("Trace windows (footprint vs window size)", "window", "F", "Fstr", "Firr")
		for _, m := range rep.Windows {
			if m.N > 0 {
				h.Add(float64(m.W), m.F, m.Fstr, m.Firr)
			}
		}
		fmt.Println(h.Render())
	}

	// Undersampling detection (§VI-A): flag code windows whose
	// diagnostics rest on too few samples or unstable estimates.
	flagged := 0
	for _, c := range rep.Confidence {
		if c.Flagged {
			flagged++
		}
	}
	if flagged > 0 {
		ct := report.NewTable("Undersampled code windows",
			"function", "samples", "records", "split-half spread", "reason")
		for _, c := range rep.Confidence {
			if c.Flagged {
				ct.Add(c.Name, c.Samples, c.Records, c.HalfSpread, c.Reason)
			}
		}
		fmt.Println(ct.Render())
	}

	if *doMRC {
		mt := report.NewTable("Predicted LRU miss-ratio curve (co-design what-if)",
			"capacity", "miss% (point)", "miss% lower", "miss% upper")
		for i, p := range rep.MRC {
			b := rep.MRCBounds[i]
			mt.Add(report.Bytes(uint64(p.CacheBlocks)*64), 100*p.MissRatio, 100*b.Lo, 100*b.Hi)
		}
		fmt.Println(mt.Render())
	}

	if *doLines {
		lt := report.NewTable("Hot source lines (§III-D attribution)",
			"line", "Ŵ loads", "F", "dF", "Fstr%", "D")
		for i, d := range rep.LineDiags {
			if i >= *topK {
				break
			}
			lt.Add(d.Name, report.Count(d.EstLoads), report.Count(d.F), d.DeltaF, d.FstrPct, d.D)
		}
		fmt.Println(lt.Render())
	}

	if *intervals > 0 {
		it := report.NewTable("Execution intervals (Fig. 4's multi-resolution time analysis)",
			"interval", "samples", "Ŵ loads", "F", "dF", "D")
		for i, d := range rep.IntervalDiags {
			it.Add(i, "-", report.Count(d.EstLoads), report.Count(d.F), d.DeltaF, d.D)
		}
		fmt.Println(it.Render())
		path := rep.IntervalTree.ZoomHot(nil)
		if len(path) > 1 {
			leaf := path[len(path)-1]
			fmt.Printf("hot-interval zoom: root -> sample %d (Ŵ=%s, dF=%s)\n\n",
				leaf.Start, report.Count(leaf.Diag.EstLoads), report.FormatFloat(leaf.Diag.DeltaF))
		}
	}

	if *doWorkingSet {
		wt := report.NewTable("Working set over time (4 KiB pages, §V-B)",
			"interval", "samples", "pages obs", "pages est")
		for _, p := range rep.WorkingSet {
			wt.Add(p.Interval, p.Samples, p.PagesObs, p.PagesEst)
		}
		fmt.Println(wt.Render())
	}

	if *roiPct > 0 {
		fmt.Printf("Suggested region of interest (≥%.0f%% of loads): %s\n",
			*roiPct, strings.Join(rep.ROI, ", "))
		fmt.Printf("  retrace with: memgaze trace -hw-filter %s ...\n\n", strings.Join(rep.ROI, ","))
	}

	if *doZoom || *doHeatmap {
		order := make([]int, len(rep.ZoomLeaves))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			return rep.ZoomLeaves[order[i]].Accesses > rep.ZoomLeaves[order[j]].Accesses
		})
		t := report.NewTable("Hot memory regions (location zoom)",
			"region", "size", "hot%", "D", "A", "A/block", "code")
		for i, k := range order {
			if i >= *topK {
				break
			}
			lf := rep.ZoomLeaves[k]
			apb := 0.0
			if blocks := rep.ZoomLeafBlocks[k]; blocks > 0 {
				apb = float64(lf.Accesses) / float64(blocks)
			}
			t.Add(fmt.Sprintf("%#x-%#x", lf.Lo, lf.Hi),
				report.Bytes(lf.Hi-lf.Lo), lf.Pct, lf.Diag.D,
				report.Count(float64(lf.Accesses)), apb,
				strings.Join(lf.HotFuncs(2), ","))
		}
		fmt.Println(t.Render())
	}
	if *doHeatmap && rep.Heatmap != nil {
		h := rep.Heatmap
		fmt.Println(report.RenderHeatmap(
			fmt.Sprintf("Accesses over %#x-%#x (rows=addr, cols=time)", h.Lo, h.Hi),
			h.Access))
		fmt.Println(report.RenderHeatmap("Reuse distance D over the same region", h.Dist))
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("trace", "trace.mgt", "trace file to dump")
	limit := fs.Int("n", 50, "records per sample to print (0 = all)")
	samples := fs.Int("samples", 3, "samples to print (0 = all)")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	fmt.Printf("# module %s mode %s period %d buffer %d B\n", tr.Module, tr.Mode, tr.Period, tr.BufBytes)
	fmt.Printf("# %d samples, %d records, rho %.1f kappa %.3f\n", tr.NumSamples(), tr.NumRecords(), tr.Rho(), tr.Kappa())
	if tr.LostBytes > 0 {
		fmt.Printf("# decode lost %s of payload to resync (buffer wrap / corruption)\n", report.Bytes(tr.LostBytes))
	}
	for si, s := range tr.AllSamples() {
		if *samples > 0 && si >= *samples {
			fmt.Printf("... %d more samples\n", tr.NumSamples()-si)
			break
		}
		fmt.Printf("sample %d cpu %d trigger@%d loads, w=%d\n", s.Seq, s.CPU, s.TriggerLoads, len(s.Records))
		for i := range s.Records {
			if *limit > 0 && i >= *limit {
				fmt.Printf("  ... %d more records\n", len(s.Records)-i)
				break
			}
			r := &s.Records[i]
			fmt.Printf("  %12d  ip %#x  addr %#x  %-9s +%d  %s:%d\n",
				r.TS, r.IP, r.Addr, r.Class, r.Implied, r.Proc, r.Line)
		}
	}
	return nil
}

// cmdConvert rewrites a trace file in the current wire format. Old v1/v2
// row-oriented files read forever, but the v3 columnar encoding is
// smaller and is what every writer now produces; convert upgrades
// archives in place (or to -o) without touching content — the content
// hash, which is defined over the canonical v3 encoding, is printed so
// callers can verify nothing moved.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("trace", "trace.mgt", "trace file to convert")
	out := fs.String("o", "", "output path (default: replace the input atomically)")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	dst := *out
	replace := dst == "" || dst == *in
	if replace {
		dst = *in + ".tmp"
	}
	g, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := tr.Write(g); err != nil {
		g.Close()
		os.Remove(dst)
		return err
	}
	if err := g.Close(); err != nil {
		os.Remove(dst)
		return err
	}
	if replace {
		if err := os.Rename(dst, *in); err != nil {
			os.Remove(dst)
			return err
		}
		dst = *in
	}
	st, err := os.Stat(dst)
	if err != nil {
		return err
	}
	fmt.Printf("%s: v3, %d samples, %d records, %s, hash %s\n",
		dst, tr.NumSamples(), tr.NumRecords(), report.Bytes(uint64(st.Size())), tr.Hash())
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	aPath := fs.String("a", "", "first trace file (the candidate)")
	bPath := fs.String("b", "", "second trace file (the baseline)")
	block := fs.Uint64("block", 64, "access-block size in bytes")
	topK := fs.Int("top", 12, "rows to print")
	fs.Parse(args)
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("compare needs -a and -b trace files")
	}
	if *block == 0 {
		return fmt.Errorf("-block must be positive")
	}
	load := func(p string) (*trace.Trace, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	ta, err := load(*aPath)
	if err != nil {
		return err
	}
	tb, err := load(*bPath)
	if err != nil {
		return err
	}
	diagsOf := func(t *trace.Trace) ([]*analysis.Diag, error) {
		rep, err := memgaze.NewAnalyzer(t, memgaze.WithBlockSize(*block),
			memgaze.WithAnalyses(memgaze.AnalyzeFunctions)).Run(context.Background())
		if err != nil {
			return nil, err
		}
		return rep.FunctionDiags, nil
	}
	da, err := diagsOf(ta)
	if err != nil {
		return err
	}
	db, err := diagsOf(tb)
	if err != nil {
		return err
	}
	byName := map[string]*analysis.Diag{}
	for _, d := range db {
		byName[d.Name] = d
	}
	t := report.NewTable(
		fmt.Sprintf("Function diagnostics: %s (A) vs %s (B)", ta.Module, tb.Module),
		"function", "Ŵ A", "Ŵ B", "F A", "F B", "dF A", "dF B", "Fstr% A", "Fstr% B", "D A", "D B")
	for i, d := range da {
		if i >= *topK {
			break
		}
		o := byName[d.Name]
		if o == nil {
			o = &analysis.Diag{Name: d.Name}
		}
		t.Add(d.Name, report.Count(d.EstLoads), report.Count(o.EstLoads),
			report.Count(d.F), report.Count(o.F),
			d.DeltaF, o.DeltaF, d.FstrPct, o.FstrPct, d.D, o.D)
	}
	fmt.Println(t.Render())
	fmt.Printf("A: %d samples, %d records, κ=%.3f   B: %d samples, %d records, κ=%.3f\n",
		ta.NumSamples(), ta.NumRecords(), ta.Kappa(),
		tb.NumSamples(), tb.NumRecords(), tb.Kappa())
	return nil
}
