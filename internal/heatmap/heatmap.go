// Package heatmap builds the location × time distributions of Fig. 8:
// for a hot address range, a matrix of access counts and a matrix of
// mean spatio-temporal reuse distances, with address bins as rows and
// time bins (sample order) as columns. The heatmaps reveal when summary
// averages are dominated by outliers — the paper's cc vs cc-sv analysis.
package heatmap

import (
	"context"
	"math"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Heatmap holds both distributions for one address range.
type Heatmap struct {
	Lo, Hi     uint64
	Rows, Cols int
	// Access[r][c] is the access count in address bin r, time bin c.
	Access [][]float64
	// Dist[r][c] is the mean reuse distance (intra-sample, blocks) of
	// accesses in the cell; NaN-free: cells with no reuse hold 0.
	Dist [][]float64

	distSumCnt [][]int
}

// Build computes a rows×cols heatmap over [lo, hi). Reuse distance is
// computed intra-sample over the region-restricted access stream, the
// same convention as the location diagnostics.
func Build(t *trace.Trace, lo, hi uint64, rows, cols int, blockSize uint64) *Heatmap {
	ix, _ := analysis.BuildAddrIndex(context.Background(), t)
	h, _ := BuildCtx(context.Background(), ix, lo, hi, rows, cols, blockSize)
	return h
}

// BuildCtx is Build over the indexed trace's address index, with
// cancellation. The region is a rank range of the index, so a record
// is in it when its rank is, and its reuse distance comes from a
// ReuseTracker over the region's ranks, one run per sample.
func BuildCtx(ctx context.Context, ix *analysis.AddrIndex, lo, hi uint64, rows, cols int, blockSize uint64) (*Heatmap, error) {
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
	t := ix.Trace()
	if hi <= lo || t.NumSamples() == 0 {
		return h, nil
	}
	span := hi - lo
	addrs := t.Addrs()
	rlo, rhi := ix.RankRange(lo, hi)
	dist := ix.ReuseTracker(rlo, rhi, blockSize)
	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		jlo, jhi := t.SampleRange(si)
		c := si * cols / t.NumSamples()
		dist.StartRun(jhi - jlo)
		for j := jlo; j < jhi; j++ {
			rk := ix.Rank(j)
			if rk < rlo || rk >= rhi {
				continue
			}
			r := int((addrs[j] - lo) * uint64(rows) / span)
			if r >= rows {
				r = rows - 1
			}
			h.Access[r][c]++
			if d := dist.Access(rk); d >= 0 {
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
	return h, nil
}

func mat(r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
	}
	return m
}

func imat(r, c int) [][]int {
	m := make([][]int, r)
	for i := range m {
		m[i] = make([]int, c)
	}
	return m
}

// Max returns the maximum cell value of a matrix.
func Max(m [][]float64) float64 {
	var mx float64
	for _, row := range m {
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}

// Stats summarises a matrix: mean and max over non-zero cells, plus the
// fraction of cells above mean+2σ ("dark bands" — outliers).
type Stats struct {
	Mean, Max   float64
	NonZero     int
	OutlierFrac float64
}

// Summarize computes Stats for a matrix.
func Summarize(m [][]float64) Stats {
	var s Stats
	var sum, sumsq float64
	for _, row := range m {
		for _, v := range row {
			if v == 0 {
				continue
			}
			s.NonZero++
			sum += v
			sumsq += v * v
			if v > s.Max {
				s.Max = v
			}
		}
	}
	if s.NonZero == 0 {
		return s
	}
	s.Mean = sum / float64(s.NonZero)
	variance := sumsq/float64(s.NonZero) - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	sigma := math.Sqrt(variance)
	cut := s.Mean + 2*sigma
	out := 0
	for _, row := range m {
		for _, v := range row {
			if v > cut {
				out++
			}
		}
	}
	s.OutlierFrac = float64(out) / float64(s.NonZero)
	return s
}
