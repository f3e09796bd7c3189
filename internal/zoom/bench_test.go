package zoom

import (
	"math/rand"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// BenchmarkZoom builds the zoom tree, leaf diagnostics and code
// attribution included, over a 256-sample trace of 512 records each:
// a hot 256 KiB object, a strided 4 MiB array, a sparse 256 MiB heap,
// eight procedures and 64 source lines, so the recursion reaches
// several levels and each leaf attributes many (procedure, line) pairs.
func BenchmarkZoom(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	procs := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	tr := &trace.Trace{Period: 10_000, TotalLoads: 256 * 10_000}
	for s := 0; s < 256; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < 512; i++ {
			r := trace.Record{Proc: procs[rng.Intn(len(procs))], Line: int32(rng.Intn(64))}
			switch rng.Intn(4) {
			case 0, 1:
				r.Addr, r.Class = 0x1000_0000+uint64(rng.Intn(1<<15))*8, dataflow.Irregular
			case 2:
				r.Addr, r.Class = 0x2000_0000+uint64(s*512+i)%(1<<16)*64, dataflow.Strided
			default:
				r.Addr, r.Class = 0x4000_0000+uint64(rng.Intn(1<<22))*64, dataflow.Class(rng.Intn(3))
			}
			smp.Records = append(smp.Records, r)
		}
		tr.AppendSample(smp)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Leaves(Build(tr, cfg))) == 0 {
			b.Fatal("no leaves")
		}
	}
}
