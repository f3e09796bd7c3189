package analysis_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/core"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/pool"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/workloads/micro"
)

// synthTrace builds a deterministic sampled trace with cross-sample
// block reuse (R3 material), several procedures, and compression, so
// every sweep code path — intra distances, R3 resolution, cold
// relabeling, presence — is exercised.
func synthTrace(samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	procs := []string{"alpha", "beta", "gamma"}
	tr := &trace.Trace{
		Module: "synth", Period: 5_000,
		TotalLoads: uint64(samples) * 5_000,
	}
	for s := 0; s < samples; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 5_000}
		for i := 0; i < recs; i++ {
			var addr uint64
			switch rng.Intn(3) {
			case 0:
				addr = 0x1000_0000 + uint64(rng.Intn(64))*64 // hot: reused across most samples
			case 1:
				addr = 0x2000_0000 + uint64(rng.Intn(1<<10))*8 // warm
			default:
				addr = 0x4000_0000 + uint64(rng.Intn(1<<18))*64 // cold-ish
			}
			rec := trace.Record{
				TS:    uint64(s*recs + i),
				Addr:  addr,
				Class: dataflow.Class(rng.Intn(3)),
				Proc:  procs[rng.Intn(len(procs))],
				Line:  int32(rng.Intn(20)),
			}
			if rng.Intn(6) == 0 {
				rec.Implied = uint32(1 + rng.Intn(3))
			}
			smp.Records = append(smp.Records, rec)
		}
		tr.AppendSample(smp)
	}
	return tr
}

// workloadTraces collects sampled traces from every micro-benchmark
// builder of the paper's suite at both optimisation levels, via the
// full toolchain (instrument, simulate, decode) — realistic compressed
// traces rather than synthetic ones.
func workloadTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	microOnce.Do(func() { microTraces, microErr = collectWorkloadTraces() })
	if microErr != nil {
		t.Fatal(microErr)
	}
	out := make(map[string]*trace.Trace, len(microTraces))
	maps.Copy(out, microTraces)
	return out
}

// The micro workload traces are collected once per test binary and
// shared read-only.
var (
	microOnce   sync.Once
	microTraces map[string]*trace.Trace
	microErr    error
)

func collectWorkloadTraces() (map[string]*trace.Trace, error) {
	out := map[string]*trace.Trace{}
	for _, opt := range []micro.OptLevel{micro.O0, micro.O3} {
		for _, spec := range micro.Suite(opt, 512, 6) {
			cfg := core.DefaultConfig()
			cfg.Period = 700
			r, err := core.Run(core.FuncWorkload{WName: spec.Name(), BuildFn: spec.Build}, cfg)
			if err != nil {
				return nil, fmt.Errorf("core.Run(%s): %v", spec.Name(), err)
			}
			out[fmt.Sprintf("%s/%s", opt, spec.Name())] = r.Trace
		}
	}
	return out, nil
}

// TestSweepMatchesOracle pins the rank-indexed sweep to the map sweep
// it replaced, bit for bit, for every part at block sizes 8, 64 and
// 4096: on every micro workload trace and the synthetic shapes, and on
// their FilterSamples and SampleSlice views, each swept on its own
// index and on the borrowed one of the full trace.
func TestSweepMatchesOracle(t *testing.T) {
	traces := workloadTraces(t)
	traces["synth/32x40"] = synthTrace(32, 40)
	traces["synth/5x7"] = synthTrace(5, 7)
	traces["synth/1x16"] = synthTrace(1, 16)
	traces["synth/empty"] = &trace.Trace{Module: "empty"}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			ix, err := analysis.BuildAddrIndex(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			views := []*trace.Trace{tr}
			if n := tr.NumSamples(); n > 2 {
				views = append(views,
					tr.FilterSamples(func(si int) bool { return si%3 != 1 }),
					tr.SampleSlice(1, n-1))
			}
			for _, blockSize := range []uint64{8, 64, 4096} {
				for _, v := range views {
					analysis.CheckSweep(t, v, nil, blockSize)
					analysis.CheckSweep(t, v, ix, blockSize)
				}
			}
		})
	}
}

// TestShardedEquivalence pins, for every micro workload and synthetic
// shape, that the walks as the engine calls them — one sweep of every
// part with precomputed Stats, keyed diagnostics on a shared index —
// are byte-identical (reflect.DeepEqual) to the standalone entry
// points: each part swept alone, Stats computed on demand, a fresh
// index per call. The name predates the removal of sample-sharded
// walks; the workload matrix is the same.
func TestShardedEquivalence(t *testing.T) {
	traces := workloadTraces(t)
	traces["synth/32x40"] = synthTrace(32, 40)
	traces["synth/5x7"] = synthTrace(5, 7)
	traces["synth/1x16"] = synthTrace(1, 16)
	traces["synth/empty"] = &trace.Trace{Module: "empty"}

	ctx := context.Background()
	const blockSize = 64
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			st := analysis.StatsOf(tr)
			ix, err := analysis.BuildAddrIndex(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}

			sw, err := analysis.NewSweep(ctx, tr, ix, blockSize, analysis.SweepEverything, st)
			if err != nil {
				t.Fatal(err)
			}
			// Each part's product is unchanged when computed alone and
			// with Stats computed on demand.
			for _, parts := range []analysis.SweepParts{analysis.SweepDistances, analysis.SweepIntervals, analysis.SweepPresence} {
				got, err := analysis.NewSweep(ctx, tr, nil, blockSize, parts, analysis.Stats{})
				if err != nil {
					t.Fatal(err)
				}
				want := &analysis.TraceSweep{BlockSize: blockSize}
				switch parts {
				case analysis.SweepDistances:
					want.Profile = sw.Profile
				case analysis.SweepIntervals:
					want.Intervals = sw.Intervals
				case analysis.SweepPresence:
					want.SamplesOf, want.RecordsOf = sw.SamplesOf, sw.RecordsOf
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("parts=%b: sweep diverges from the all-parts sweep\n got %+v\nwant %+v", parts, got, want)
				}
			}

			diags, err := ix.FunctionDiagnostics(ctx, tr, blockSize, st)
			if err != nil {
				t.Fatal(err)
			}
			wantDiags, err := analysis.FunctionDiagnosticsCtx(ctx, tr, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(diags, wantDiags) {
				t.Error("function diagnostics on a shared index diverge from FunctionDiagnosticsCtx")
			}
			lines, err := ix.LineDiagnostics(ctx, tr, blockSize, st)
			if err != nil {
				t.Fatal(err)
			}
			wantLines, err := analysis.LineDiagnosticsCtx(ctx, tr, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lines, wantLines) {
				t.Error("line diagnostics on a shared index diverge from LineDiagnosticsCtx")
			}
		})
	}
}

// TestSweepZeroStats pins that the zero Stats (compute on demand)
// yields the same sweep and function diagnostics as injecting
// precomputed Stats.
func TestSweepZeroStats(t *testing.T) {
	tr := synthTrace(16, 24)
	ctx := context.Background()
	withSt, err := analysis.NewSweep(ctx, tr, nil, 64, analysis.SweepEverything, analysis.StatsOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	withoutSt, err := analysis.NewSweep(ctx, tr, nil, 64, analysis.SweepEverything, analysis.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withSt, withoutSt) {
		t.Error("zero-Stats sweep diverges from injected-Stats sweep")
	}
	ix, err := analysis.BuildAddrIndex(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	diagsSt, err := ix.FunctionDiagnostics(ctx, tr, 64, analysis.StatsOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ix.FunctionDiagnostics(ctx, tr, 64, analysis.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diagsSt, diags) {
		t.Error("zero-Stats function diagnostics diverge from injected-Stats ones")
	}
}

// TestConcurrentWalks drives several sweeps and function-diagnostic
// walks of the same trace, on one shared address index, concurrently
// through the worker-pool primitive — the engine's actual execution
// shape when multiple analyses fan out — under -race.
func TestConcurrentWalks(t *testing.T) {
	tr := synthTrace(24, 32)
	st := analysis.StatsOf(tr)
	ctx := context.Background()
	ref, err := analysis.NewSweep(ctx, tr, nil, 64, analysis.SweepEverything, st)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := analysis.BuildAddrIndex(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	refDiags, err := ix.FunctionDiagnostics(ctx, tr, 64, st)
	if err != nil {
		t.Fatal(err)
	}

	tasks := make([]func(context.Context) error, 12)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			sw, err := analysis.NewSweep(ctx, tr, ix, 64, analysis.SweepEverything, st)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(sw, ref) {
				return fmt.Errorf("task %d: concurrent sweep diverges", i)
			}
			diags, err := ix.FunctionDiagnostics(ctx, tr, 64, st)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(diags, refDiags) {
				return fmt.Errorf("task %d: concurrent function diagnostics diverge", i)
			}
			return nil
		}
	}
	if err := pool.Run(ctx, 4, tasks); err != nil {
		t.Fatal(err)
	}
}

// TestWalkCancellation pins that the sweep and the keyed walks stop on
// a cancelled context instead of completing the walk.
func TestWalkCancellation(t *testing.T) {
	tr := synthTrace(32, 32)
	ix, err := analysis.BuildAddrIndex(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := analysis.NewSweep(ctx, tr, ix, 64, analysis.SweepEverything, analysis.Stats{}); err == nil {
		t.Error("sweep ignored cancelled context")
	}
	if _, err := ix.FunctionDiagnostics(ctx, tr, 64, analysis.Stats{}); err == nil {
		t.Error("function diagnostics ignored cancelled context")
	}
	if _, err := ix.LineDiagnostics(ctx, tr, 64, analysis.Stats{}); err == nil {
		t.Error("line diagnostics ignored cancelled context")
	}
}
