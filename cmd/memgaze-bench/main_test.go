package main

import (
	"io"
	"testing"

	"github.com/memgaze/memgaze-go/internal/experiments"
)

// TestGateOK pins the gate's verdicts: rows within the threshold pass,
// a row past it on any metric fails, and a row the baseline lacks fails
// rather than going ungated.
func TestGateOK(t *testing.T) {
	base := []experiments.BenchMetric{
		{Name: "sweep", NsPerOp: 1000, AllocsPerOp: 40, BytesPerOp: 2000},
		{Name: "retired", NsPerOp: 5},
	}
	row := func(name string, ns, allocs, bytes int64) experiments.BenchMetric {
		return experiments.BenchMetric{Name: name, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
	}
	for _, c := range []struct {
		name string
		cur  []experiments.BenchMetric
		want bool
	}{
		{"within", []experiments.BenchMetric{row("sweep", 1100, 40, 2000)}, true},
		{"faster", []experiments.BenchMetric{row("sweep", 500, 10, 100)}, true},
		{"slower", []experiments.BenchMetric{row("sweep", 1300, 40, 2000)}, false},
		{"more allocs", []experiments.BenchMetric{row("sweep", 1000, 60, 2000)}, false},
		{"more bytes", []experiments.BenchMetric{row("sweep", 1000, 40, 2500)}, false},
		{"missing row", []experiments.BenchMetric{row("sweep", 1000, 40, 2000), row("serve_subset", 70, 120, 10)}, false},
	} {
		if got := gateOK(io.Discard, c.cur, base, 20); got != c.want {
			t.Errorf("%s: gateOK = %v, want %v", c.name, got, c.want)
		}
	}
}
