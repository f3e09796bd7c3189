package engine

import (
	"sync"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// StreamAccum folds decoded sample windows into a whole-trace
// diagnostic accumulation as they arrive — concurrently and out of
// order, the way pt.BuildCaptureStream's workers emit them — so a
// streamed ingest learns the trace's headline numbers (records, κ, ρ,
// footprint diagnostics) without a second walk over the built trace.
//
// It is exact, not approximate: each window's records accumulate into a
// private analysis.DiagAccum off the hot lock, and completed windows
// fold into the running accumulation strictly in capture order via
// MergeDiagAccums, whose first-touch semantics make in-order folding
// byte-identical to one sequential pass. Each fold is in place and
// costs O(window), not O(footprint so far). Out-of-order windows wait in a
// pending set bounded by the builder's in-flight window count (workers
// plus the dispatch slack), so memory stays O(workers), not O(trace).
type StreamAccum struct {
	block uint64

	mu      sync.Mutex
	acc     *analysis.DiagAccum         // folded prefix of windows
	pending map[int]*analysis.DiagAccum // decoded, waiting for their turn
	next    int                         // first window index not yet folded
	samples int                         // non-empty windows folded
	records int                         // records folded
}

// accumName labels the whole-trace accumulation in Finish's Diag.
const accumName = "trace"

// NewStreamAccum returns an empty accumulation at the given reuse block
// granularity (0 selects the 64-byte cache-line convention).
func NewStreamAccum(blockSize uint64) *StreamAccum {
	if blockSize == 0 {
		blockSize = 64
	}
	return &StreamAccum{block: blockSize, pending: map[int]*analysis.DiagAccum{}}
}

// AddSample folds one decoded window, keyed by its position in the
// capture; s is nil for windows that decoded to no records. Safe to
// call concurrently and out of order — it is exactly the contract of
// pt.BuildOptions.SampleSink, so a method value of AddSample plugs into
// pt.WithSampleSink directly. Every index from 0 up must eventually
// arrive; until a missing index does, later windows are held pending.
func (sa *StreamAccum) AddSample(idx int, s *trace.Sample) {
	// Accumulate the window outside the lock: this is the expensive
	// part, and it parallelises across the builder's workers.
	var wa *analysis.DiagAccum
	if s != nil && len(s.Records) > 0 {
		wa = analysis.NewDiagAccum(accumName, sa.block)
		wa.StartSample()
		for i := range s.Records {
			wa.Add(&s.Records[i])
		}
	}

	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.pending[idx] = wa
	for {
		w, ok := sa.pending[sa.next]
		if !ok {
			return
		}
		delete(sa.pending, sa.next)
		sa.next++
		if w == nil {
			continue
		}
		sa.samples++
		a, _ := w.Counts()
		sa.records += a
		if sa.acc == nil {
			sa.acc = w
		} else {
			sa.acc = analysis.MergeDiagAccums(accumName, sa.acc, w)
		}
	}
}

// Records returns A(σ) over the folded windows: the trace's NumRecords.
func (sa *StreamAccum) Records() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.records
}

// Samples returns the non-empty windows folded so far: the number of
// samples the built trace will carry.
func (sa *StreamAccum) Samples() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.samples
}

// Counts returns the observed accesses and implied constant accesses of
// the folded windows — the κ and ρ inputs, as DiagAccum.Counts.
func (sa *StreamAccum) Counts() (a int, implied uint64) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.acc == nil {
		return 0, 0
	}
	return sa.acc.Counts()
}

// Kappa returns the compression ratio κ(σ) = 1 + A_const(σ)/A(σ) of the
// folded windows — trace.Kappa without the trace.
func (sa *StreamAccum) Kappa() float64 {
	a, implied := sa.Counts()
	if a == 0 {
		return 1
	}
	return 1 + float64(implied)/float64(a)
}

// Rho returns the sample ratio ρ given the capture's executed-load
// counter and sampling period, mirroring trace.Rho: hardware counter as
// ground truth, |σ|·period as the fallback estimate, floored at 1.
func (sa *StreamAccum) Rho(totalLoads, period uint64) float64 {
	sa.mu.Lock()
	records, samples := sa.records, sa.samples
	sa.mu.Unlock()
	decompressed := sa.Kappa() * float64(records)
	if decompressed == 0 {
		return 1
	}
	executed := float64(totalLoads)
	if executed == 0 {
		executed = float64(samples) * float64(period)
	}
	if executed < decompressed {
		return 1
	}
	return executed / decompressed
}

// Finish computes the whole-trace Diag at sample ratio rho. The
// accumulation is left intact; more windows may still be folded.
func (sa *StreamAccum) Finish(rho float64) *analysis.Diag {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	acc := sa.acc
	if acc == nil {
		acc = analysis.NewDiagAccum(accumName, sa.block)
	}
	return acc.Finish(rho)
}
