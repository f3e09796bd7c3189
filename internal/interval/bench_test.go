package interval

import (
	"math/rand"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// BenchmarkIntervalTree builds the execution interval tree over a
// 256-sample trace of 512 records each, drawn from a 64K-word region in
// all three access classes — the same shape as the analysis package's
// BenchmarkWindowHistogram trace, four times as many samples so the
// upper levels merge sizeable address sets.
func BenchmarkIntervalTree(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Period: 10_000, TotalLoads: 256 * 10_000}
	for s := 0; s < 256; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < 512; i++ {
			smp.Records = append(smp.Records, trace.Record{
				Addr:  0x2000_0000 + uint64(rng.Intn(1<<16))*8,
				Class: dataflow.Class(rng.Intn(3)),
				Proc:  "f",
			})
		}
		tr.AppendSample(smp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(tr, 64)
	}
}
