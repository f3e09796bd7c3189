package main

import (
	"bytes"
	"context"
	"fmt"

	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/vm"
	"github.com/memgaze/memgaze-go/internal/workloads/darknet"
	"github.com/memgaze/memgaze-go/internal/workloads/gap"
	"github.com/memgaze/memgaze-go/internal/workloads/minivite"
	"github.com/memgaze/memgaze-go/internal/workloads/sites"
)

// Corpus shape: the paper's applications at two optimisation levels,
// each traced on instancesPerApp seeded inputs.
const (
	graphScale      = 10 // log2 vertices of the GAP and miniVite graphs
	darknetShrink   = 16 // per-axis shrink of AlexNet's gemm layers
	instancesPerApp = 2
	bufBytes        = 8 << 10 // PT buffer, the paper's application setting
)

// appSpec is one application configuration of the corpus. period is
// the sampling period in loads, chosen per application so captures
// span tens to hundreds of windows.
type appSpec struct {
	name   string
	period uint64
	// build constructs the workload for an input seed; it returns the
	// module to trace and the function that executes it.
	build func(seed uint64) (*sites.Module, func(*sites.Runner))
}

func gapApp(name string, algo gap.Algorithm, opt gap.Opt, period uint64) appSpec {
	return appSpec{name, period, func(seed uint64) (*sites.Module, func(*sites.Runner)) {
		w := gap.New(gap.Config{Scale: graphScale, Algo: algo, Opt: opt, Seed: seed}, true)
		return w.Mod, w.Run
	}}
}

func miniviteApp(name string, v minivite.Variant, opt minivite.Opt, period uint64) appSpec {
	return appSpec{name, period, func(seed uint64) (*sites.Module, func(*sites.Runner)) {
		w := minivite.New(minivite.Config{Scale: graphScale, Variant: v, Opt: opt, Seed: seed}, true)
		return w.Mod, func(r *sites.Runner) { w.Run(r) }
	}}
}

// darknetApp models O0 as a scalar inner loop (one load per element)
// and O3 as darknet's 4-wide unrolled loop. AlexNet has no input seed;
// its instances differ through the collector's jitter seed.
func darknetApp(name string, simd int, period uint64) appSpec {
	return appSpec{name, period, func(uint64) (*sites.Module, func(*sites.Runner)) {
		w := darknet.New(darknet.Config{Model: darknet.AlexNet, Shrink: darknetShrink, SIMD: simd})
		return w.Mod, w.Run
	}}
}

var apps = []appSpec{
	gapApp("gap-pr-O3", gap.PR, gap.O3, 3000),
	gapApp("gap-pr-O0", gap.PR, gap.O0, 3000),
	gapApp("gap-cc-O3", gap.CC, gap.O3, 500),
	gapApp("gap-cc-O0", gap.CC, gap.O0, 500),
	miniviteApp("minivite-v1-O3", minivite.V1, minivite.O3, 3000),
	miniviteApp("minivite-v1-O0", minivite.V1, minivite.O0, 3000),
	miniviteApp("minivite-v3-O3", minivite.V3, minivite.O3, 3000),
	miniviteApp("minivite-v3-O0", minivite.V3, minivite.O0, 3000),
	darknetApp("alexnet-O3", 4, 3000),
	darknetApp("alexnet-O0", 1, 3000),
}

// capture is one corpus entry: a real PT capture of an application run.
// Uploads send variants of it (see body).
type capture struct {
	name    string
	cp      *pt.Capture
	bytes   int // encoded size of variant 0
	windows int
}

// genCorpus traces every application instance under a sampled PT
// collector. The seed picks the graph inputs and collector jitter, so
// the same seed gives byte-identical captures. tr (nil when untraced)
// gets the workloads.build, vm.collect and pt.capture_write spans.
func genCorpus(seed uint64, tr *tracer) ([]*capture, error) {
	var out []*capture
	var buf bytes.Buffer
	for inst := 0; inst < instancesPerApp; inst++ {
		for ai, a := range apps {
			s := mix(seed, uint64(inst*len(apps)+ai))
			var mod *sites.Module
			var run func(*sites.Runner)
			tr.do("workloads.build", -1, -1, func() { mod, run = a.build(s%1_000_003 + 1) })

			col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: a.period, BufBytes: bufBytes, Seed: s})
			tr.do("vm.collect", -1, -1, func() {
				mod.ResetGroups()
				run(sites.NewRunner(vm.DefaultCosts(), col, true))
			})

			var cp *pt.Capture
			var err error
			buf.Reset()
			tr.do("pt.capture_write", -1, -1, func() {
				if cp, err = col.Capture(mod.Notes()); err == nil {
					err = cp.Write(&buf)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("capturing %s: %w", a.name, err)
			}
			out = append(out, &capture{
				name:    fmt.Sprintf("%s#%d", a.name, inst),
				cp:      cp,
				bytes:   buf.Len(),
				windows: len(cp.Samples),
			})
		}
	}
	return out, nil
}

// body encodes variant k of the capture into buf. Variant k reports k
// more executed loads than the run counted: the PT payload, and so all
// decode and analysis work, is unchanged, but the built trace — and
// with it the content hash — is new, so no upload deduplicates.
func (c *capture) body(k int, buf *bytes.Buffer) error {
	v := *c.cp
	v.TotalLoads += uint64(k)
	buf.Reset()
	return v.Write(buf)
}

// build decodes variant k in-process through the buffered builder, the
// reference the output checks compare memgazed's answers against.
func (c *capture) build(k int) (*trace.Trace, pt.DecodeStats, error) {
	var buf bytes.Buffer
	if err := c.body(k, &buf); err != nil {
		return nil, pt.DecodeStats{}, err
	}
	cp, err := pt.ReadCapture(&buf)
	if err != nil {
		return nil, pt.DecodeStats{}, err
	}
	return cp.NewBuilder().Build(context.Background())
}

// mix derives a well-spread 64-bit value from a seed and an index
// (splitmix64 finaliser).
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
