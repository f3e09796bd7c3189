package analysis

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// The Diag kernel's oracle is the map path it replaced on the request
// path and that DiagAccum (StreamAccum's fold) still runs: one
// accumulator per window, every accumulator restarting its reuse stream
// at each sample.

// oracleKeyed is the map build of the per-procedure (or per-line) code
// windows, hottest first.
func oracleKeyed(t *trace.Trace, blockSize uint64, byLine bool) []*Diag {
	accs := map[string]*DiagAccum{}
	for si := 0; si < t.NumSamples(); si++ {
		for _, ac := range accs {
			ac.StartSample()
		}
		for _, r := range t.SampleRecords(si) {
			name := r.Proc
			if byLine {
				name = fmt.Sprintf("%s:%d", r.Proc, r.Line)
			}
			ac, ok := accs[name]
			if !ok {
				ac = NewDiagAccum(name, blockSize)
				accs[name] = ac
			}
			ac.Add(&r)
		}
	}
	rho := t.Rho()
	var out []*Diag
	for _, ac := range accs {
		out = append(out, ac.Finish(rho))
	}
	sortByHotness(out)
	return out
}

// oracleRegions is the map build of the region windows: each record
// counts for the first region containing it.
func oracleRegions(t *trace.Trace, regions []Region, blockSize uint64) []*Diag {
	accs := make([]*DiagAccum, len(regions))
	for i, g := range regions {
		accs[i] = NewDiagAccum(g.Name, blockSize)
	}
	for si := 0; si < t.NumSamples(); si++ {
		for _, ac := range accs {
			ac.StartSample()
		}
		for _, r := range t.SampleRecords(si) {
			for i, g := range regions {
				if g.Contains(r.Addr) {
					accs[i].Add(&r)
					break
				}
			}
		}
	}
	rho := t.Rho()
	out := make([]*Diag, len(accs))
	for i, ac := range accs {
		out[i] = ac.Finish(rho)
	}
	return out
}

// oracleWindow is the map build of one window over samples [lo, hi).
func oracleWindow(t *trace.Trace, lo, hi int, blockSize uint64, rho float64) *Diag {
	ac := NewDiagAccum("window", blockSize)
	for si := lo; si < hi; si++ {
		ac.StartSample()
		for _, r := range t.SampleRecords(si) {
			ac.Add(&r)
		}
	}
	return ac.Finish(rho)
}

func diagsDiff(got, want []*Diag) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if d := bitDiff(*got[i], *want[i]); d != "" {
			return fmt.Sprintf("window %d (%s): %s", i, want[i].Name, d)
		}
	}
	return ""
}

// checkDiagKernel compares every kernel-backed diagnostic of tr against
// the map oracle, bit for bit: code windows, regions, and whole-sample
// windows. When parent is non-nil, tr is a
// sample view of the trace parent indexes, and the view's diagnostics
// are checked both on the view's own index and on the borrowed one.
func checkDiagKernel(t *testing.T, tr *trace.Trace, parent *AddrIndex, regions []Region, blockSize uint64, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	own, err := BuildAddrIndex(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []*AddrIndex{own}
	if parent != nil {
		indexes = append(indexes, parent)
	}
	wantFuncs := oracleKeyed(tr, blockSize, false)
	wantLines := oracleKeyed(tr, blockSize, true)
	wantRegions := oracleRegions(tr, regions, blockSize)
	for _, ix := range indexes {
		got, err := ix.FunctionDiagnostics(ctx, tr, blockSize, Stats{})
		if err != nil {
			t.Fatal(err)
		}
		if d := diagsDiff(got, wantFuncs); d != "" {
			t.Fatalf("functions, borrowed=%v: %s", ix != own, d)
		}
		got, err = ix.LineDiagnostics(ctx, tr, blockSize, Stats{})
		if err != nil {
			t.Fatal(err)
		}
		if d := diagsDiff(got, wantLines); d != "" {
			t.Fatalf("lines, borrowed=%v: %s", ix != own, d)
		}
		got, err = ix.RegionDiagnostics(ctx, tr, regions, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if d := diagsDiff(got, wantRegions); d != "" {
			t.Fatalf("regions %v, borrowed=%v: %s", regions, ix != own, d)
		}
		// Whole-sample windows, empty ones included, one kernel reused
		// across them.
		k, err := ix.Kernel(tr, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		rho := tr.Rho()
		for range 4 {
			lo := rng.Intn(tr.NumSamples() + 1)
			hi := lo + rng.Intn(tr.NumSamples()-lo+1)
			for si := lo; si < hi; si++ {
				k.AddSample(si)
			}
			if d := bitDiff(*k.Diag("window", rho), *oracleWindow(tr, lo, hi, blockSize, rho)); d != "" {
				t.Fatalf("samples [%d,%d), borrowed=%v: %s", lo, hi, ix != own, d)
			}
		}
	}
}

// randomDiagTrace draws a small trace for the Diag kernel: several
// procedures and lines, all three classes, unaligned addresses around
// block boundaries, a hot pool for reuse, strided runs for the lattice,
// empty samples and occasional huge Implied counts.
func randomDiagTrace(rng *rand.Rand) *trace.Trace {
	t := &trace.Trace{Module: "rand", Period: uint64(rng.Intn(4000))}
	samples := rng.Intn(20)
	pool := 1 + rng.Intn(80)
	procs := []string{"main", "kernel", "helper"}[:1+rng.Intn(3)]
	var total uint64
	for s := 0; s < samples; s++ {
		t.AddSample(s, 0, uint64(s+1)*t.Period)
		n := rng.Intn(60)
		if rng.Intn(6) == 0 {
			n = 0
		}
		base := 0x1000_0000 + uint64(rng.Intn(4))<<12
		stride := uint64(4 << rng.Intn(5))
		for i := 0; i < n; i++ {
			cls := dataflow.Class(rng.Intn(3))
			addr := 0x1000_0000 + uint64(rng.Intn(pool))*uint64(1+rng.Intn(24))
			if cls == dataflow.Strided && rng.Intn(3) > 0 {
				addr = base + uint64(i)*stride
			}
			var implied uint32
			switch rng.Intn(10) {
			case 0:
				implied = rng.Uint32()
			case 1, 2:
				implied = uint32(rng.Intn(8))
			}
			t.AppendRecord(&trace.Record{
				Addr: addr, Class: cls, Implied: implied,
				Proc: procs[rng.Intn(len(procs))], Line: int32(rng.Intn(6)) - 1,
			})
			total += 1 + uint64(implied)
		}
	}
	if rng.Intn(2) == 0 {
		t.TotalLoads = total * uint64(1+rng.Intn(40))
	}
	return t
}

// randomRegions draws overlapping regions with bounds off block
// boundaries, plus an empty and a never-touched one.
func randomRegions(rng *rand.Rand) []Region {
	out := []Region{{Name: "empty", Lo: 0x1000_0100, Hi: 0x1000_0100}, {Name: "untouched", Lo: 1, Hi: 100}}
	for i := range 1 + rng.Intn(5) {
		lo := 0x1000_0000 + uint64(rng.Intn(1<<14))
		out = append(out, Region{Name: fmt.Sprintf("r%d", i), Lo: lo, Hi: lo + uint64(rng.Intn(1<<14))})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestDiagKernelMatchesOracle pins the Diag kernel — code windows,
// regions and sample windows, on a trace's own index and on a view's
// borrowed one — to the map accumulation, bit for bit.
func TestDiagKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		tr := randomDiagTrace(rng)
		blockSize := uint64(8 << rng.Intn(6))
		regions := randomRegions(rng)
		checkDiagKernel(t, tr, nil, regions, blockSize, rng)
		if tr.NumSamples() > 2 {
			ix, err := BuildAddrIndex(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			checkDiagKernel(t, tr.FilterSamples(func(si int) bool { return si%3 != 1 }), ix, regions, blockSize, rng)
			checkDiagKernel(t, tr.SampleSlice(1, tr.NumSamples()-1), ix, regions, blockSize, rng)
		}
	}
}

// TestAddrIndexRejectsForeignTrace pins that an index ranks only its
// own trace and that trace's sample views: another trace, even one
// with equal contents, is refused rather than read with wrong ranks.
func TestAddrIndexRejectsForeignTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomDiagTrace(rng)
	for tr.Len() == 0 {
		tr = randomDiagTrace(rng)
	}
	ix, err := BuildAddrIndex(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	clone := trace.Merge([]*trace.Trace{tr})
	if _, err := ix.FunctionDiagnostics(context.Background(), clone, 64, Stats{}); !errors.Is(err, errForeignTrace) {
		t.Errorf("foreign trace: err = %v, want errForeignTrace", err)
	}
	if _, err := ix.Kernel(clone, 64); !errors.Is(err, errForeignTrace) {
		t.Errorf("foreign kernel: err = %v, want errForeignTrace", err)
	}
}

// FuzzDiagKernel decodes the input into a small trace and a region list
// and checks the Diag kernel against the map oracle. Layout: a header
// byte (period and block-size selector), then 3-byte records — address
// slot, class (with a sample-break bit and a large-Implied bit) and a
// procedure/line byte — with region bounds taken from the trailing
// bytes.
func FuzzDiagKernel(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0x12, 2, 1, 0x01, 1, 0x81, 0x22, 3, 2, 0x10, 9, 40})
	f.Add([]byte{0x45, 5, 0, 1, 5, 1, 0, 5, 0x82, 3, 7, 2, 0, 16, 2, 30})
	f.Add([]byte{200, 1, 0x41, 0, 2, 1, 0, 3, 0x81, 0, 4, 1, 0, 1, 0, 0, 255, 255, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 3*256+9 {
			return
		}
		tr := &trace.Trace{Module: "fuzz", Period: uint64(data[0]&0x1f) * 37}
		blockSize := uint64(8) << (data[0] >> 5)
		procs := []string{"a", "b", "c", "d"}
		body := data[1:]
		nrec := len(body) / 3
		for i := 0; i < nrec; i++ {
			b := body[3*i : 3*i+3]
			if tr.NumSamples() == 0 || b[1]&0x80 != 0 {
				tr.AddSample(tr.NumSamples(), 0, 0)
			}
			implied := uint32(b[1] >> 2 & 0xf)
			if b[1]&0x40 != 0 {
				implied = uint32(b[2]) << 24
			}
			tr.AppendRecord(&trace.Record{
				Addr: 0x4000 + uint64(b[0])*4, Class: dataflow.Class(b[1] & 3 % 3), Implied: implied,
				Proc: procs[b[2]&3], Line: int32(b[2] >> 2 & 7),
			})
		}
		if tr.Period > 0 {
			tr.TotalLoads = uint64(tr.NumSamples()) * tr.Period * 2
		}
		var regions []Region
		tail := body[3*nrec:]
		for i := 0; i+1 < len(tail); i += 2 {
			lo := 0x4000 + uint64(tail[i])*4
			regions = append(regions, Region{Name: fmt.Sprint(i), Lo: lo, Hi: lo + uint64(tail[i+1])*4})
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkDiagKernel(t, tr, nil, regions, blockSize, rng)
		if tr.NumSamples() > 1 {
			ix, err := BuildAddrIndex(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			checkDiagKernel(t, tr.FilterSamples(func(si int) bool { return si%2 == 0 }), ix, regions, blockSize, rng)
		}
	})
}

// oracleRegionCodes is the map count of RegionCodes: per region, a map
// keyed by (procedure id, line), ordered by procedure, line and region.
func oracleRegionCodes(t *trace.Trace, regions []Region) []RegionCode {
	type key struct {
		region int
		proc   uint32
		line   int32
	}
	counts := map[key]int{}
	procIDs, lines, addrs := t.ProcIDs(), t.Lines(), t.Addrs()
	for si := 0; si < t.NumSamples(); si++ {
		lo, hi := t.SampleRange(si)
		for j := lo; j < hi; j++ {
			for g, reg := range regions {
				if reg.Contains(addrs[j]) {
					counts[key{g, procIDs[j], lines[j]}]++
					break
				}
			}
		}
	}
	var out []RegionCode
	for k, c := range counts {
		out = append(out, RegionCode{Region: k.region, Proc: k.proc, Line: k.line, Count: c})
	}
	slices.SortFunc(out, func(a, b RegionCode) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Region, b.Region))
	})
	return out
}

// TestRegionCodesMatchOracle pins both ways RegionCodes counts — the
// dense location table and the radix grouping it falls back to when
// lines spread too far — to the map count, on traces, their sample
// views on a borrowed index, and traces whose lines span the int32
// range.
func TestRegionCodesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ctx := context.Background()
	check := func(tr *trace.Trace, ix *AddrIndex, regions []Region) {
		t.Helper()
		want := oracleRegionCodes(tr, regions)
		got, err := ix.RegionCodes(ctx, tr, regions)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
			t.Fatalf("RegionCodes = %v, want %v", got, want)
		}
		sorted, err := ix.regionCodesSorted(ctx, tr, regions, ix.RegionOf(regions))
		if err != nil {
			t.Fatal(err)
		}
		if len(sorted) != len(want) || (len(want) > 0 && !slices.Equal(sorted, want)) {
			t.Fatalf("regionCodesSorted = %v, want %v", sorted, want)
		}
	}
	for i := 0; i < 300; i++ {
		tr := randomDiagTrace(rng)
		if i%3 == 0 {
			// Lines across the int32 range force the radix grouping.
			spread := &trace.Trace{Module: "spread", Period: tr.Period}
			for si := 0; si < tr.NumSamples(); si++ {
				spread.AddSample(si, 0, 0)
				for _, r := range tr.SampleRecords(si) {
					r.Line = int32(rng.Uint32())
					spread.AppendRecord(&r)
				}
			}
			tr = spread
		}
		regions := randomRegions(rng)
		ix, err := BuildAddrIndex(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		check(tr, ix, regions)
		if tr.NumSamples() > 2 {
			check(tr.FilterSamples(func(si int) bool { return si%3 != 1 }), ix, regions)
		}
	}
}
