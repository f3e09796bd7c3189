package analysis

import (
	"context"
	"math/rand"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

func benchTrace(samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Period: 10_000, TotalLoads: uint64(samples) * 10_000}
	for s := 0; s < samples; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recs; i++ {
			smp.Records = append(smp.Records, trace.Record{
				Addr:  0x2000_0000 + uint64(rng.Intn(1<<16))*8,
				Class: dataflow.Class(rng.Intn(3)),
				Proc:  "f",
			})
		}
		tr.AppendSample(smp)
	}
	return tr
}

// BenchmarkSweep measures the full sweep over a prebuilt address index,
// as the engine runs it.
func BenchmarkSweep(b *testing.B) {
	tr := benchTrace(256, 512)
	ctx := context.Background()
	ix, err := BuildAddrIndex(ctx, tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSweep(ctx, tr, ix, 64, SweepEverything, Stats{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStackDistAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<14)) * 8
	}
	sd := NewStackDist(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Access(addrs[i&(1<<14-1)])
	}
}

func BenchmarkFunctionDiagnostics(b *testing.B) {
	tr := benchTrace(64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FunctionDiagnostics(tr, 64)
	}
}

func BenchmarkWindowHistogram(b *testing.B) {
	tr := benchTrace(64, 512)
	windows := PowerOfTwoWindows(4, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WindowHistogram(tr, windows)
	}
}

func BenchmarkMissRatioCurve(b *testing.B) {
	tr := benchTrace(64, 512)
	caps := []int{64, 1024, 16384}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MissRatioCurve(tr, 64, caps)
	}
}
