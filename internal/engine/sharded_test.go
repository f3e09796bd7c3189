package engine

import (
	"context"
	"reflect"
	"testing"
)

// TestReportShardInvariant pins the engine-level determinism contract:
// a full suite Report is byte-identical at every sweep-shard count.
func TestReportShardInvariant(t *testing.T) {
	tr := testTrace(24, 48)
	ref, err := New(tr, WithAnalyses(AllAnalyses()...), WithSweepShards(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2, 3, 5, 24, 99} {
		rep, err := New(tr, WithAnalyses(AllAnalyses()...), WithSweepShards(shards)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Errorf("WithSweepShards(%d): Report diverges from sequential", shards)
		}
	}
}

// TestParallelShardedSuite runs the full suite with eight workers at
// several shard counts — the analyses share only the memoized address
// index, read-only, and every kernel's scratch is its worker's own — and
// pins each Report to the sequential one. Run it under -race.
func TestParallelShardedSuite(t *testing.T) {
	tr := testTrace(24, 96)
	all := WithAnalyses(AllAnalyses()...)
	ref, err := New(tr, all, WithParallelism(1), WithSweepShards(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		rep, err := New(tr, all, WithParallelism(8), WithSweepShards(shards)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Errorf("WithParallelism(8), WithSweepShards(%d): Report diverges from sequential", shards)
		}
	}
}
