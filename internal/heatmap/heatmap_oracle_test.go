package heatmap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// oracleBuild is the map walk the rank-indexed heatmap replaced: a
// StackDist per sample over the region-restricted access stream.
func oracleBuild(t *trace.Trace, lo, hi uint64, rows, cols int, blockSize uint64) *Heatmap {
	if rows <= 0 {
		rows = 32
	}
	if cols <= 0 {
		cols = 48
	}
	h := &Heatmap{Lo: lo, Hi: hi, Rows: rows, Cols: cols}
	h.Access = mat(rows, cols)
	h.Dist = mat(rows, cols)
	h.distSumCnt = imat(rows, cols)
	if hi <= lo || t.NumSamples() == 0 {
		return h
	}
	span := hi - lo
	addrs := t.Addrs()
	dist := analysis.NewStackDist(blockSize)
	for si := 0; si < t.NumSamples(); si++ {
		rlo, rhi := t.SampleRange(si)
		c := si * cols / t.NumSamples()
		dist.Reset()
		for _, addr := range addrs[rlo:rhi] {
			if addr < lo || addr >= hi {
				continue
			}
			r := int((addr - lo) * uint64(rows) / span)
			if r >= rows {
				r = rows - 1
			}
			h.Access[r][c]++
			if d, _ := dist.Access(addr); d >= 0 {
				h.Dist[r][c] += float64(d)
				h.distSumCnt[r][c]++
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if n := h.distSumCnt[r][c]; n > 0 {
				h.Dist[r][c] /= float64(n)
			}
		}
	}
	return h
}

// heatmapDiff compares two heatmaps cell by cell, floats by their bits.
func heatmapDiff(got, want *Heatmap) string {
	if got.Lo != want.Lo || got.Hi != want.Hi || got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Sprintf("shape %+v, want %+v", got, want)
	}
	for r := range want.Access {
		for c := range want.Access[r] {
			if math.Float64bits(got.Access[r][c]) != math.Float64bits(want.Access[r][c]) ||
				math.Float64bits(got.Dist[r][c]) != math.Float64bits(want.Dist[r][c]) {
				return fmt.Sprintf("cell (%d,%d): access %v dist %v, want %v and %v",
					r, c, got.Access[r][c], got.Dist[r][c], want.Access[r][c], want.Dist[r][c])
			}
		}
	}
	return ""
}

// randomHeatTrace draws a trace with a hot pool for intra-sample reuse,
// scattered addresses around the region bounds and empty samples.
func randomHeatTrace(rng *rand.Rand) *trace.Trace {
	t := &trace.Trace{Module: "rand", Period: 1000}
	for s := 0; s < rng.Intn(40); s++ {
		t.AddSample(s, 0, uint64(s+1)*1000)
		pool := 1 + rng.Intn(200)
		for range rng.Intn(80) {
			addr := 0x1000 + uint64(rng.Intn(pool))*uint64(1+rng.Intn(40))
			t.AppendRecord(&trace.Record{Addr: addr, Proc: "f"})
		}
	}
	return t
}

// TestHeatmapMatchesOracle pins the rank-indexed heatmap to the map
// walk, bit for bit, over random traces, regions (empty, partial and
// whole), shapes and block sizes.
func TestHeatmapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		tr := randomHeatTrace(rng)
		ix, err := analysis.BuildAddrIndex(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		lo := 0x1000 + uint64(rng.Intn(4000))
		hi := lo + uint64(rng.Intn(6000)) - 500
		rows, cols := rng.Intn(20), rng.Intn(30)
		blockSize := uint64(8) << rng.Intn(10)
		got, err := BuildCtx(context.Background(), ix, lo, hi, rows, cols, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if d := heatmapDiff(got, oracleBuild(tr, lo, hi, rows, cols, blockSize)); d != "" {
			t.Fatalf("case %d, [%#x,%#x) block %d: %s", i, lo, hi, blockSize, d)
		}
	}
}

// BenchmarkHeatmap measures the default-shaped heatmap over the hot
// half of a synthetic trace's address range, on a prebuilt index as the
// engine runs it.
func BenchmarkHeatmap(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Period: 10_000}
	for s := 0; s < 256; s++ {
		tr.AddSample(s, 0, uint64(s+1)*10_000)
		for range 512 {
			tr.AppendRecord(&trace.Record{Addr: 0x2000_0000 + uint64(rng.Intn(1<<16))*8, Proc: "f"})
		}
	}
	ix, err := analysis.BuildAddrIndex(context.Background(), tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCtx(context.Background(), ix, 0x2000_0000, 0x2000_0000+1<<18, 0, 0, 64); err != nil {
			b.Fatal(err)
		}
	}
}
