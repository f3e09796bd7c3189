package interval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// oracleDiags is the map-based build the sorted-run kernel replaced,
// kept as the test oracle: one DiagAccum per leaf, parents folding
// their right child's accumulation into their left's. It returns every
// node's Diag keyed by the node's sample range.
func oracleDiags(t *trace.Trace, blockSize uint64) map[[2]int]*analysis.Diag {
	tr := &Tree{trace: t, blockSize: blockSize}
	type node struct {
		start, end int
		acc        *analysis.DiagAccum
	}
	out := map[[2]int]*analysis.Diag{}
	var level []node
	for i := 0; i < t.NumSamples(); i++ {
		ac := analysis.NewDiagAccum("interval", blockSize)
		ac.StartSample()
		for _, r := range t.SampleRecords(i) {
			ac.Add(&r)
		}
		a, implied := ac.Counts()
		out[[2]int{i, i + 1}] = ac.Finish(tr.rhoFor(i, i+1, a, implied))
		level = append(level, node{i, i + 1, ac})
	}
	for len(level) > 1 {
		var next []node
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			l, r := level[i], level[i+1]
			ac := analysis.MergeDiagAccums("interval", l.acc, r.acc)
			a, implied := ac.Counts()
			out[[2]int{l.start, r.end}] = ac.Finish(tr.rhoFor(l.start, r.end, a, implied))
			next = append(next, node{l.start, r.end, ac})
		}
		level = next
	}
	return out
}

// diagBitDiff reports the first Diag field where got and want differ,
// floats compared by their bits; "" when identical.
func diagBitDiff(got, want *analysis.Diag) string {
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		name := g.Type().Field(i).Name
		if gf.Kind() == reflect.Float64 {
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				return fmt.Sprintf("%s = %v, want %v", name, gf.Float(), wf.Float())
			}
		} else if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			return fmt.Sprintf("%s = %v, want %v", name, gf.Interface(), wf.Interface())
		}
	}
	return ""
}

// randomTreeTrace draws a small trace with empty samples, samples of
// one class (all strided, all irregular, all constant) or mixed,
// strided runs, a hot address pool, occasional huge Implied counts and
// sample counts from 1 up, odd ones included.
func randomTreeTrace(rng *rand.Rand) *trace.Trace {
	t := &trace.Trace{Module: "rand", Period: uint64(rng.Intn(3000))}
	samples := 1 + rng.Intn(21)
	pool := 1 + rng.Intn(64)
	for s := 0; s < samples; s++ {
		t.AddSample(s, 0, uint64(s+1)*t.Period)
		n := rng.Intn(70)
		if rng.Intn(6) == 0 {
			n = 0
		}
		mode := rng.Intn(5) // 0-2: one class; 3-4: mixed
		base := 0x1000_0000 + uint64(rng.Intn(3))<<16
		stride := uint64(8 << rng.Intn(4))
		for i := 0; i < n; i++ {
			cls := dataflow.Class(rng.Intn(3))
			if mode < 3 {
				cls = dataflow.Class(mode)
			}
			addr := 0x2000_0000 + uint64(rng.Intn(pool))*8
			if cls == dataflow.Strided && rng.Intn(4) > 0 {
				addr = base + uint64(i)*stride
			}
			var implied uint32
			switch rng.Intn(10) {
			case 0:
				implied = rng.Uint32()
			case 1, 2:
				implied = uint32(rng.Intn(8))
			}
			t.AppendRecord(&trace.Record{Addr: addr, Class: cls, Implied: implied, Proc: "f"})
		}
	}
	if rng.Intn(2) == 0 {
		t.TotalLoads = uint64(t.Len()) * uint64(1+rng.Intn(4000))
	}
	return t
}

// TestTreeMatchesOracle pins every node of the sorted-run tree to the
// map-based build it replaced, bit for bit, on seeded random traces and
// their sample-subset views.
func TestTreeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(tr *trace.Trace, blockSize uint64) {
		t.Helper()
		want := oracleDiags(tr, blockSize)
		seen := 0
		var walk func(n *Node)
		walk = func(n *Node) {
			seen++
			if d := diagBitDiff(n.Diag, want[[2]int{n.Start, n.End}]); d != "" {
				t.Fatalf("%d samples, node [%d,%d): %s", tr.NumSamples(), n.Start, n.End, d)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(Build(tr, blockSize).Root)
		if seen != len(want) {
			t.Fatalf("%d samples: %d nodes, want %d", tr.NumSamples(), seen, len(want))
		}
	}
	for i := 0; i < 300; i++ {
		tr := randomTreeTrace(rng)
		blockSize := uint64(8 << rng.Intn(6))
		check(tr, blockSize)
		if tr.NumSamples() > 2 {
			check(tr.FilterSamples(func(si int) bool { return si%3 != 1 }), blockSize)
			check(tr.SampleSlice(1, tr.NumSamples()), blockSize)
		}
	}
}

// diagFor computes diagnostics over samples [start, end) from scratch,
// independently of the tree's kernel and of rhoFor: a column-sharing
// view over the range, credited a proportional share of the execution's
// loads, walked record by record through the map-based DiagAccum and
// finished at the view's own ρ.
func (tr *Tree) diagFor(ctx context.Context, start, end int) (*analysis.Diag, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sub := tr.trace.SampleSlice(start, end)
	sub.TotalLoads = 0
	if n := tr.trace.NumSamples(); n > 0 {
		sub.TotalLoads = tr.trace.TotalLoads * uint64(end-start) / uint64(n)
	}
	da := analysis.NewDiagAccum("interval", tr.blockSize)
	prev := -1
	for si, r := range sub.Records() {
		if si != prev {
			da.StartSample()
			prev = si
		}
		da.Add(r)
	}
	return da.Finish(sub.Rho()), nil
}
