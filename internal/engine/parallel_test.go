package engine

import (
	"context"
	"reflect"
	"testing"
)

// TestParallelShardedSuite runs the full suite with eight workers — the
// analyses share only the memoized derived products (the address index
// and the sweep among them), read-only, and every kernel's scratch is
// its worker's own — and pins each Report to the one-worker Report. Run
// it under -race.
func TestParallelShardedSuite(t *testing.T) {
	tr := testTrace(24, 96)
	all := WithAnalyses(AllAnalyses()...)
	ref, err := New(tr, all, WithParallelism(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		rep, err := New(tr, all, WithParallelism(8)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Error("WithParallelism(8): Report diverges from WithParallelism(1)")
		}
	}
}
