package analysis

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// The map-based window histogram the chain kernel replaced, kept as the
// test oracle: every window's address multiset accumulates in two maps
// (first-touch class, access count), record by record.

type oracleWinAcc struct {
	weight    float64
	clsWeight [3]float64
	addrs     map[uint64]dataflow.Class
	counts    map[uint64]int
}

func newOracleWinAcc() *oracleWinAcc {
	return &oracleWinAcc{addrs: make(map[uint64]dataflow.Class), counts: make(map[uint64]int)}
}

func (wa *oracleWinAcc) reset() {
	wa.weight = 0
	wa.clsWeight = [3]float64{}
	clear(wa.addrs)
	clear(wa.counts)
}

func (wa *oracleWinAcc) add(addr uint64, implied uint32, class dataflow.Class) {
	wa.weight += 1 + float64(implied)
	cls, ok := wa.addrs[addr]
	if !ok {
		cls = class
		wa.addrs[addr] = cls
	}
	wa.clsWeight[cls] += 1 + float64(implied)
	wa.counts[addr]++
}

func (wa *oracleWinAcc) stridedLattice() float64 {
	var addrs []uint64
	for addr := range wa.counts {
		if wa.addrs[addr] == dataflow.Strided {
			addrs = append(addrs, addr)
		}
	}
	slices.Sort(addrs)
	return LatticePopulation(addrs)
}

func (wa *oracleWinAcc) csCounts() [3]CSCounts {
	var cs [3]CSCounts
	for addr, n := range wa.counts {
		k := int(wa.addrs[addr])
		cs[k].Unique++
		if n == 1 {
			cs[k].Singletons++
		} else if n == 2 {
			cs[k].Doubletons++
		}
		cs[k].Draws += float64(n)
	}
	return cs
}

func (wa *oracleWinAcc) flush(m *WindowMetrics, ratio float64, globalPop [3]float64) {
	cs := wa.csCounts()
	var f, fs, fi float64
	if ratio <= 1 {
		f = cs[0].Unique + cs[1].Unique + cs[2].Unique
		fs = cs[dataflow.Strided].Unique
		fi = cs[dataflow.Irregular].Unique
	} else {
		est := func(k dataflow.Class) float64 {
			c := cs[k]
			fallback := globalPop[k]
			if k == dataflow.Strided && fallback == 0 {
				fallback = wa.stridedLattice()
			}
			return EstimateUnique(k, c, ratio*wa.clsWeight[k], c.Unique*ratio, fallback)
		}
		fc := est(dataflow.Constant)
		fs = est(dataflow.Strided)
		fi = est(dataflow.Irregular)
		f = fc + fs + fi
	}
	var c, s float64
	for _, n := range wa.counts {
		if n > 1 {
			c++
		} else {
			s++
		}
	}
	m.N++
	m.F += f * wordBytes
	m.Fstr += fs * wordBytes
	m.Firr += fi * wordBytes
	m.C += ratio * c
	m.S += ratio * s
}

func oracleGlobalPopulations(t *trace.Trace) [3]float64 {
	wa := newOracleWinAcc()
	addrs, implied, classes := t.Addrs(), t.Implied(), t.Classes()
	for si := 0; si < t.NumSamples(); si++ {
		lo, hi := t.SampleRange(si)
		for j := lo; j < hi; j++ {
			wa.add(addrs[j], implied[j], dataflow.Class(classes[j]))
		}
	}
	var out [3]float64
	for k, c := range wa.csCounts() {
		if p := c.Population(); !isInf(p) {
			out[k] = p
		}
	}
	if lat := wa.stridedLattice(); lat > 0 {
		out[dataflow.Strided] = lat
	}
	return out
}

func oracleIntraWindows(t *trace.Trace, w uint64) WindowMetrics {
	var m WindowMetrics
	wa := newOracleWinAcc()
	addrs, implied, classes := t.Addrs(), t.Implied(), t.Classes()
	flushTail := func() {
		if wa.weight >= float64(w)/2 {
			wa.flush(&m, float64(w)/wa.weight, [3]float64{})
		}
	}
	started := false
	for si := 0; si < t.NumSamples(); si++ {
		lo, hi := t.SampleRange(si)
		if lo == hi {
			continue
		}
		if started {
			flushTail()
		}
		wa.reset()
		started = true
		for j := lo; j < hi; j++ {
			wa.add(addrs[j], implied[j], dataflow.Class(classes[j]))
			if wa.weight >= float64(w) {
				wa.flush(&m, 1, [3]float64{})
				wa.reset()
			}
		}
	}
	if started {
		flushTail()
	}
	meanOf(&m)
	return m
}

func oracleInterWindows(t *trace.Trace, w uint64, k int, globalPop [3]float64) WindowMetrics {
	var m WindowMetrics
	if t.Period == 0 || t.Len() == 0 {
		return m
	}
	wa := newOracleWinAcc()
	group := -1
	flushGroup := func() {
		if wa.weight == 0 {
			return
		}
		ratio := float64(w) / wa.weight
		if ratio < 1 {
			ratio = 1
		}
		wa.flush(&m, ratio, globalPop)
	}
	addrs, implied, classes := t.Addrs(), t.Implied(), t.Classes()
	for si := 0; si < t.NumSamples(); si++ {
		lo, hi := t.SampleRange(si)
		if lo == hi {
			continue
		}
		if g := si / k; g != group {
			if group >= 0 {
				flushGroup()
			}
			wa.reset()
			group = g
		}
		for j := lo; j < hi; j++ {
			wa.add(addrs[j], implied[j], dataflow.Class(classes[j]))
		}
	}
	if group >= 0 {
		flushGroup()
	}
	meanOf(&m)
	return m
}

// oracleWindowHistogram is WindowHistogram on the map accumulator, one
// window size at a time. The group span is the shared groupSpan: the
// oracle pins the kernel, not the span arithmetic.
func oracleWindowHistogram(t *trace.Trace, windows []uint64) []WindowMetrics {
	pop := oracleGlobalPopulations(t)
	meanW := t.MeanW() * t.Kappa()
	out := make([]WindowMetrics, len(windows))
	for i, w := range windows {
		if t.Period == 0 || float64(w) <= meanW {
			out[i] = oracleIntraWindows(t, w)
		} else {
			out[i] = oracleInterWindows(t, w, groupSpan(w, t.Period, t.NumSamples()), pop)
		}
		out[i].W = w
		if out[i].N > 0 && w > 0 {
			out[i].DeltaF = out[i].F / float64(w)
		}
	}
	return out
}

// bitDiff reports the first field where two structs of the same type
// differ, comparing floats by their bits (so NaNs compare, and -0 ≠ 0);
// "" when they are identical.
func bitDiff(got, want any) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		name := g.Type().Field(i).Name
		if gf.Kind() == reflect.Float64 {
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				return fmt.Sprintf("%s = %v (%#x), want %v (%#x)", name,
					gf.Float(), math.Float64bits(gf.Float()), wf.Float(), math.Float64bits(wf.Float()))
			}
		} else if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			return fmt.Sprintf("%s = %v, want %v", name, gf.Interface(), wf.Interface())
		}
	}
	return ""
}

// randomKernelTrace draws a small trace exercising every corner the
// window kernels handle: empty samples, samples of one class (all
// strided, all irregular, all constant) or mixed, strided runs that
// give the lattice a pitch, a small hot address pool that gives reuse,
// occasional huge Implied counts, full traces (Period 0), and odd or
// single sample counts.
func randomKernelTrace(rng *rand.Rand) *trace.Trace {
	t := &trace.Trace{Module: "rand"}
	if rng.Intn(5) > 0 {
		t.Period = uint64(1 + rng.Intn(5000))
	}
	samples := rng.Intn(24)
	if t.Period == 0 {
		samples = min(samples, 2) // full traces hold one (or no) run
	}
	pool := 1 + rng.Intn(96)
	var total uint64
	for s := 0; s < samples; s++ {
		t.AddSample(s, 0, uint64(s+1)*t.Period)
		n := rng.Intn(80)
		if rng.Intn(6) == 0 {
			n = 0
		}
		mode := rng.Intn(5) // 0-2: one class; 3-4: mixed
		base := 0x1000_0000 + uint64(rng.Intn(4))<<20
		stride := uint64(8 << rng.Intn(4))
		for i := 0; i < n; i++ {
			cls := dataflow.Class(rng.Intn(3))
			if mode < 3 {
				cls = dataflow.Class(mode)
			}
			var addr uint64
			switch {
			case cls == dataflow.Strided && rng.Intn(4) > 0:
				addr = base + uint64(i)*stride
			default:
				addr = 0x2000_0000 + uint64(rng.Intn(pool))*8
			}
			var implied uint32
			switch rng.Intn(10) {
			case 0:
				implied = rng.Uint32()
			case 1, 2:
				implied = uint32(rng.Intn(8))
			}
			t.AppendRecord(&trace.Record{Addr: addr, Class: cls, Implied: implied, Proc: "f"})
			total += 1 + uint64(implied)
		}
	}
	if rng.Intn(2) == 0 {
		t.TotalLoads = total * uint64(1+rng.Intn(40))
	}
	return t
}

// kernelWindows returns window sizes on both sides of the trace's
// decompressed mean sample size, including fractions that leave tail
// windows of at least w/2 and sizes spanning one, several and all
// samples.
func kernelWindows(rng *rand.Rand, t *trace.Trace) []uint64 {
	meanW := t.MeanW() * t.Kappa()
	ws := []uint64{0, 1, 2, 3, 7, uint64(meanW / 3), uint64(meanW*2/3) + 1, uint64(meanW),
		uint64(meanW) + 1, uint64(meanW * 2), uint64(meanW * 5), 1 << 40, math.MaxUint64}
	if t.Period > 0 {
		ws = append(ws, t.Period, 3*t.Period+1, t.Period*uint64(t.NumSamples()))
	}
	for range 4 {
		ws = append(ws, uint64(rng.Int63n(int64(meanW*8)+2)))
	}
	return ws
}

// oracleChainLinks is the map build of the chains' links: each
// record's previous and next same-address record, by a last-seen map
// keyed by address.
func oracleChainLinks(t *trace.Trace) (prev, next []int) {
	ns := t.NumSamples()
	if ns == 0 {
		return nil, nil
	}
	base, _ := t.SampleRange(0)
	_, end := t.SampleRange(ns - 1)
	addrs := t.Addrs()[base:end]
	prev = make([]int, end-base)
	next = make([]int, end-base)
	last := map[uint64]int{}
	covered := 0
	for si := 0; si < ns; si++ {
		lo, hi := t.SampleRange(si)
		lo, hi = lo-base, hi-base
		for j := covered; j < lo; j++ {
			prev[j] = j
		}
		for j := lo; j < hi; j++ {
			a := addrs[j]
			next[j] = noNext
			if p, ok := last[a]; ok {
				prev[j] = p
				next[p] = j
			} else {
				prev[j] = noPrev
			}
			last[a] = j
		}
		covered = max(covered, hi)
	}
	return prev, next
}

// checkWindowKernels compares the chain kernels against the oracle on
// one trace: the chains' links, the global populations and every
// WindowMetrics field. ix, if non-nil, is a borrowed index of the trace
// tr is a view of; the chains are checked on it and on tr's own.
func checkWindowKernels(t *testing.T, tr *trace.Trace, ix *AddrIndex, windows []uint64) {
	t.Helper()
	ch, err := BuildAddrChains(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev, next := oracleChainLinks(tr)
	if !slices.Equal(ch.prev, prev) || !slices.Equal(ch.next, next) {
		t.Fatalf("chain links diverge from the map build:\n prev %v\nwant %v\n next %v\nwant %v", ch.prev, prev, ch.next, next)
	}
	if ix != nil {
		borrowed, err := BuildAddrChains(context.Background(), tr, ix)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(borrowed.prev, prev) || !slices.Equal(borrowed.next, next) {
			t.Fatal("chain links on a borrowed index diverge from the map build")
		}
		if a, b := borrowed.Populations(), ch.Populations(); a != b {
			t.Fatalf("populations on a borrowed index %v, want %v", a, b)
		}
	}
	pop, wantPop := ch.Populations(), oracleGlobalPopulations(tr)
	for k := range pop {
		if math.Float64bits(pop[k]) != math.Float64bits(wantPop[k]) {
			t.Fatalf("population[%d] = %v, want %v", k, pop[k], wantPop[k])
		}
	}
	got, err := ch.WindowHistogram(context.Background(), windows)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleWindowHistogram(tr, windows)
	for i := range want {
		if d := bitDiff(got[i], want[i]); d != "" {
			t.Fatalf("window %d (W=%d, period %d, %d samples, %d records): %s",
				i, windows[i], tr.Period, tr.NumSamples(), tr.Len(), d)
		}
	}
}

// TestWindowKernelsMatchOracle pins the chain kernel to the map
// accumulation it replaced, bit for bit, on seeded random traces and
// on sample-subset views (whose columns have gaps).
func TestWindowKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		tr := randomKernelTrace(rng)
		checkWindowKernels(t, tr, nil, kernelWindows(rng, tr))
		if tr.NumSamples() > 2 {
			ix, err := BuildAddrIndex(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			view := tr.FilterSamples(func(si int) bool { return si%3 != 1 })
			checkWindowKernels(t, view, ix, kernelWindows(rng, view))
			sub := tr.SampleSlice(1, tr.NumSamples()-1)
			checkWindowKernels(t, sub, ix, kernelWindows(rng, sub))
		}
	}
}

// TestWindowSpanNoOverflow pins the inter-window group span for sizes
// near 2^64: ⌈w/period⌉ must neither wrap (which split MaxUint64 into
// one-sample groups) nor exceed the trace — every such window is one
// whole-trace group.
func TestWindowSpanNoOverflow(t *testing.T) {
	tr := &trace.Trace{Period: 5000, TotalLoads: 40 * 5000}
	for s := 0; s < 40; s++ {
		tr.AddSample(s, 0, uint64(s+1)*5000)
		for i := 0; i < 16; i++ {
			tr.AppendRecord(&trace.Record{Addr: uint64(0x1000 + 8*(s*16+i)), Class: dataflow.Irregular, Proc: "f"})
		}
	}
	for _, w := range []uint64{math.MaxUint64, math.MaxUint64 / 2, math.MaxUint64 - 4999, 40 * 5000} {
		m := WindowHistogram(tr, []uint64{w})[0]
		if m.N != 1 {
			t.Errorf("W=%d: N = %d windows, want 1 whole-trace group", w, m.N)
		}
	}
}

// FuzzWindowKernels decodes the input into a small trace and a window
// list and checks the chain kernels against the map oracle. Layout: a
// header byte (period selector), then 3-byte records — address slot,
// class (with a sample-break bit and a large-Implied bit) and implied —
// with window sizes taken from the trailing bytes.
func FuzzWindowKernels(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 2, 1, 0, 1, 0x81, 2, 3, 2, 0, 9, 40})
	f.Add([]byte{0, 5, 0, 1, 5, 1, 0, 5, 0x82, 3, 7, 2, 0, 16, 2})
	f.Add([]byte{200, 1, 0x41, 0, 2, 1, 0, 3, 0x81, 0, 4, 1, 0, 1, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 3*256+9 {
			return
		}
		tr := &trace.Trace{Module: "fuzz", Period: uint64(data[0]) * 37}
		body := data[1:]
		nrec := len(body) / 3
		for i := 0; i < nrec; i++ {
			b := body[3*i : 3*i+3]
			if tr.NumSamples() == 0 || b[1]&0x80 != 0 {
				tr.AddSample(tr.NumSamples(), 0, 0)
			}
			cls := dataflow.Class(b[1] & 0x3f % 3)
			implied := uint32(b[2] % 5)
			if b[1]&0x40 != 0 {
				implied = uint32(b[2]) << 24
			}
			tr.AppendRecord(&trace.Record{Addr: 0x4000 + uint64(b[0]%32)*8, Class: cls, Implied: implied})
		}
		if tr.Period > 0 {
			tr.TotalLoads = uint64(tr.NumSamples()) * tr.Period
		}
		var windows []uint64
		for _, b := range body[3*nrec:] {
			windows = append(windows, uint64(b)*uint64(b)+1)
		}
		windows = append(windows, 1, math.MaxUint64)
		checkWindowKernels(t, tr, nil, windows)
	})
}
