package analysis_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
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
// every sweep code path — intra distances, in-shard and cross-shard R3
// resolution, cold relabeling, presence — is exercised.
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
	out := map[string]*trace.Trace{}
	for _, opt := range []micro.OptLevel{micro.O0, micro.O3} {
		for _, spec := range micro.Suite(opt, 512, 6) {
			cfg := core.DefaultConfig()
			cfg.Period = 700
			r, err := core.Run(core.FuncWorkload{WName: spec.Name(), BuildFn: spec.Build}, cfg)
			if err != nil {
				t.Fatalf("core.Run(%s): %v", spec.Name(), err)
			}
			out[fmt.Sprintf("%s/%s", opt, spec.Name())] = r.Trace
		}
	}
	return out
}

// shardCounts is the sweep of shard counts every product is pinned at,
// including degenerate ones (more shards than samples).
func shardCounts(samples int) []int {
	return []int{1, 2, 3, 7, samples, samples + 5}
}

// TestShardedEquivalence pins the contract of the sharded walks: for
// every workload and shard count, output is byte-identical
// (reflect.DeepEqual) to the sequential path.
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

			seqSweep, err := analysis.NewSweep(ctx, tr, blockSize, analysis.SweepEverything)
			if err != nil {
				t.Fatal(err)
			}
			seqDiags, err := analysis.FunctionDiagnosticsCtx(ctx, tr, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			seqLines, err := analysis.LineDiagnosticsCtx(ctx, tr, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := analysis.BuildAddrIndex(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range shardCounts(tr.NumSamples()) {
				sw, err := analysis.NewSweepSharded(ctx, tr, blockSize, analysis.SweepEverything, shards, st)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sw, seqSweep) {
					t.Errorf("shards=%d: TraceSweep diverges from sequential\n got %+v\nwant %+v", shards, sw, seqSweep)
				}
				diags, err := ix.FunctionDiagnostics(ctx, tr, blockSize, shards, st)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(diags, seqDiags) {
					t.Errorf("shards=%d: function diagnostics diverge from sequential", shards)
				}
				lines, err := ix.LineDiagnostics(ctx, tr, blockSize, shards, st)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lines, seqLines) {
					t.Errorf("shards=%d: line diagnostics diverge from sequential", shards)
				}
			}

			// Restricted parts must behave identically too: each part's
			// product is unchanged when computed alone.
			for _, parts := range []analysis.SweepParts{analysis.SweepDistances, analysis.SweepIntervals, analysis.SweepPresence} {
				seq, err := analysis.NewSweep(ctx, tr, blockSize, parts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := analysis.NewSweepSharded(ctx, tr, blockSize, parts, 3, st)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, seq) {
					t.Errorf("parts=%b shards=3: sweep diverges from sequential", parts)
				}
			}
		})
	}
}

// TestShardedZeroStats pins that the zero Stats (compute on demand)
// yields the same result as injecting precomputed Stats.
func TestShardedZeroStats(t *testing.T) {
	tr := synthTrace(16, 24)
	ctx := context.Background()
	withSt, err := analysis.NewSweepSharded(ctx, tr, 64, analysis.SweepEverything, 4, analysis.StatsOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	withoutSt, err := analysis.NewSweepSharded(ctx, tr, 64, analysis.SweepEverything, 4, analysis.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withSt, withoutSt) {
		t.Error("zero-Stats sweep diverges from injected-Stats sweep")
	}
}

// TestShardedSweepConcurrent drives several sharded sweeps of the same
// trace concurrently through the worker-pool primitive — the engine's
// actual execution shape when multiple analyses fan out — under -race.
func TestShardedSweepConcurrent(t *testing.T) {
	tr := synthTrace(24, 32)
	st := analysis.StatsOf(tr)
	ctx := context.Background()
	ref, err := analysis.NewSweep(ctx, tr, 64, analysis.SweepEverything)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := analysis.BuildAddrIndex(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}

	tasks := make([]func(context.Context) error, 12)
	for i := range tasks {
		shards := 2 + i%5
		tasks[i] = func(ctx context.Context) error {
			sw, err := analysis.NewSweepSharded(ctx, tr, 64, analysis.SweepEverything, shards, st)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(sw, ref) {
				return fmt.Errorf("shards=%d: concurrent sharded sweep diverges", shards)
			}
			if _, err := ix.FunctionDiagnostics(ctx, tr, 64, shards, st); err != nil {
				return err
			}
			return nil
		}
	}
	if err := pool.Run(ctx, 4, tasks); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCancellation pins that sharded walks stop on a cancelled
// context instead of completing the walk.
func TestShardedCancellation(t *testing.T) {
	tr := synthTrace(32, 32)
	ix, err := analysis.BuildAddrIndex(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := analysis.NewSweepSharded(ctx, tr, 64, analysis.SweepEverything, 4, analysis.Stats{}); err == nil {
		t.Error("sharded sweep ignored cancelled context")
	}
	if _, err := ix.FunctionDiagnostics(ctx, tr, 64, 4, analysis.Stats{}); err == nil {
		t.Error("sharded diagnostics ignored cancelled context")
	}
}
