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

// The sweep's oracle is the map walk it replaced: StackDist with its
// block map per sample, and last-sighting, block-count and per-sample
// address maps.

// oracleSighting is the last observation of a block or address: the
// trigger load count of its sample and the sample's index.
type oracleSighting struct {
	trigger uint64
	sample  int
}

func oracleSweep(ctx context.Context, t *trace.Trace, blockSize uint64, parts SweepParts, st Stats) (*TraceSweep, error) {
	sw := &TraceSweep{BlockSize: blockSize}
	addrs, procIDs := t.Addrs(), t.ProcIDs()

	var pres *presence
	if parts&SweepPresence != 0 {
		pres = newPresence(len(t.Procs()))
	}

	var (
		p           = &ReuseProfile{}
		sd          *StackDist
		lastSeen    map[uint64]oracleSighting
		gaps        []float64
		blockCounts map[uint64]int
		bpaSum      float64
		bpaN        int
		accesses    int
	)
	if parts&SweepDistances != 0 {
		sd = NewStackDist(blockSize)
		lastSeen = map[uint64]oracleSighting{}
		blockCounts = map[uint64]int{}
	}

	var intraB, interB [maxLog]int
	var lastAddr map[uint64]oracleSighting
	var seenAddr map[uint64]int // addr -> record index within the sample
	if parts&SweepIntervals != 0 {
		lastAddr = map[uint64]oracleSighting{}
		seenAddr = map[uint64]int{}
	}

	for si := 0; si < t.NumSamples(); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		info := t.SampleInfo(si)
		lo, hi := info.Lo, info.Hi
		trigger := info.TriggerLoads
		if parts&SweepDistances != 0 && hi > lo {
			sd.Reset()
		}
		if seenAddr != nil {
			clear(seenAddr)
		}
		for j := lo; j < hi; j++ {
			addr := addrs[j]

			if parts&SweepPresence != 0 {
				pres.add(procIDs[j], si)
			}

			if parts&SweepIntervals != 0 {
				if prev, ok := seenAddr[addr]; ok {
					intraB[ibucket(uint64(j-lo-prev))]++
				} else if ls, ok := lastAddr[addr]; ok && ls.sample != si {
					if d := trigger - ls.trigger; d > 0 {
						interB[ibucket(d)]++
					}
				}
				seenAddr[addr] = j - lo
				lastAddr[addr] = oracleSighting{trigger: trigger, sample: si}
			}

			if parts&SweepDistances != 0 {
				accesses++
				p.Total++
				b := addr / blockSize
				blockCounts[b]++
				switch d, _ := sd.Access(addr); {
				case d >= 0:
					p.Intra = append(p.Intra, d)
				default:
					if prev, ok := lastSeen[b]; ok && prev.sample != si {
						gaps = append(gaps, float64(trigger-prev.trigger))
					} else {
						p.Cold++
					}
				}
				lastSeen[b] = oracleSighting{trigger: trigger, sample: si}
			}
		}
		if parts&SweepDistances != 0 && hi > lo {
			bpaSum += float64(sd.Blocks()) / float64(hi-lo)
			bpaN++
		}
	}

	if parts&SweepPresence != 0 {
		sw.SamplesOf, sw.RecordsOf = pres.fold(t.Procs())
	}
	if parts&SweepIntervals != 0 {
		sw.Intervals = intervalBuckets(&intraB, &interB)
	}
	if parts&SweepDistances != 0 {
		// The finish reads only the multiset of block counts.
		counts := make([]uint32, 0, len(blockCounts))
		for _, n := range blockCounts {
			counts = append(counts, uint32(n))
		}
		finishDistances(t, p, gaps, counts, bpaSum, bpaN, accesses, st)
		sw.Profile = p
	}
	return sw, nil
}

// sweepDiff compares two sweeps field by field, the miss-ratio bounds
// the profiles give included, floats by their bits.
func sweepDiff(got, want *TraceSweep) string {
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("got %+v\nwant %+v", got, want)
	}
	if got.Profile == nil {
		return ""
	}
	caps := []int{0, 1, 2, 4, 16, 64, 1 << 10, 1 << 20}
	gb, wb := got.Profile.MissRatioBoundsAll(caps), want.Profile.MissRatioBoundsAll(caps)
	for i := range wb {
		if d := bitDiff(gb[i], wb[i]); d != "" {
			return fmt.Sprintf("bounds at %d blocks: %s", caps[i], d)
		}
	}
	return ""
}

// CheckSweep compares NewSweep on ix (nil: the trace's own index) with
// the map oracle for the whole sweep and each part alone.
func CheckSweep(t *testing.T, tr *trace.Trace, ix *AddrIndex, blockSize uint64) {
	t.Helper()
	ctx := context.Background()
	st := StatsOf(tr)
	for _, parts := range []SweepParts{SweepEverything, SweepDistances, SweepIntervals, SweepPresence} {
		got, err := NewSweep(ctx, tr, ix, blockSize, parts, st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleSweep(ctx, tr, blockSize, parts, st)
		if err != nil {
			t.Fatal(err)
		}
		if d := sweepDiff(got, want); d != "" {
			t.Fatalf("parts %b, block %d, borrowed index %v: %s", parts, blockSize, ix != nil, d)
		}
	}
}

// FuzzSweep decodes the input into a small trace and checks the sweep
// against the map oracle, on the trace's own index and on a sample
// view borrowing it. Layout: a header byte (period and block-size
// selector), then 2-byte records — address slot and a byte holding a
// sample-break bit, a trigger-step selector (the largest toggles a
// 2^45-load jump, so triggers also fall) and the procedure.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 1, 1, 0x80, 9, 2, 1, 0x81, 40, 3})
	f.Add([]byte{0x45, 5, 0, 1, 0, 5, 0x82, 3, 0x10, 2, 0, 16, 0x83})
	f.Add([]byte{0xe0, 1, 0, 200, 0x80, 1, 0xc1, 255, 0, 255, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 2*512+1 {
			return
		}
		tr := &trace.Trace{Module: "fuzz", Period: uint64(data[0]&0x1f) * 37}
		blockSize := uint64(8) << (data[0] >> 5)
		procs := []string{"a", "b", "c", "d"}
		var trigger uint64
		for i := 1; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			if tr.NumSamples() == 0 || b&0x80 != 0 {
				if step := uint64(b >> 4 & 7); step == 7 {
					trigger ^= 1 << 45 // a wide jump up, or back down
				} else {
					trigger += step * 101
				}
				tr.AddSample(tr.NumSamples(), 0, trigger)
			}
			tr.AppendRecord(&trace.Record{
				Addr: 0x4000 + uint64(a)*4, Class: dataflow.Class(a % 3),
				Implied: uint32(b >> 2 & 3), Proc: procs[b&3],
			})
		}
		if tr.Period > 0 {
			tr.TotalLoads = uint64(tr.NumSamples()) * tr.Period * 2
		}
		CheckSweep(t, tr, nil, blockSize)
		if tr.NumSamples() > 1 {
			ix, err := BuildAddrIndex(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			CheckSweep(t, tr.FilterSamples(func(si int) bool { return si%2 == 0 }), ix, blockSize)
			CheckSweep(t, tr.SampleSlice(1, tr.NumSamples()), ix, blockSize)
		}
	})
}

// oracleLatticePopulation is latticePopulation taking the pitch from
// fully sorted gaps.
func oracleLatticePopulation(sorted []uint64) float64 {
	if len(sorted) < 4 {
		return 0
	}
	var gaps []uint64
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return 1
	}
	slices.Sort(gaps)
	pitch := gaps[len(gaps)/2]
	split := max(64*pitch, 4096)
	var pop float64
	clusterStart, prev := sorted[0], sorted[0]
	for _, a := range sorted[1:] {
		if a-prev > split {
			pop += float64((prev-clusterStart)/pitch) + 1
			clusterStart = a
		}
		prev = a
	}
	pop += float64((prev-clusterStart)/pitch) + 1
	return pop
}

// TestSelectKth pins the selection against a sorted copy on adversarial
// shapes: sorted, reversed, constant, few distinct values, and random.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapes := map[string]func(n int) []uint64{
		"random": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() >> rng.Intn(64)
			}
			return a
		},
		"sorted": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(i)
			}
			return a
		},
		"reversed": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(n - i)
			}
			return a
		},
		"constant": func(n int) []uint64 { return make([]uint64, n) },
		"few": func(n int) []uint64 {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(rng.Intn(3)) * 8
			}
			return a
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 16, 17, 100, 1000, 4097} {
			a := gen(n)
			sorted := slices.Sorted(slices.Values(a))
			for _, k := range []int{0, n / 2, n - 1, rng.Intn(n)} {
				b := slices.Clone(a)
				if got := selectKth(b, k); got != sorted[k] {
					t.Fatalf("%s n=%d k=%d: got %d, want %d", name, n, k, got, sorted[k])
				}
			}
		}
	}
}

// TestLatticeMatchesOracle pins the selection-based lattice estimate to
// the sorting one, bit for bit, on strided address sets with clusters,
// jitter and duplicates.
func TestLatticeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 2000; i++ {
		var addrs []uint64
		for c := 0; c < 1+rng.Intn(4); c++ {
			base := uint64(rng.Intn(1 << 30))
			pitch := uint64(1 + rng.Intn(256))
			for j := 0; j < rng.Intn(200); j++ {
				a := base + uint64(j)*pitch
				if rng.Intn(5) == 0 {
					a += uint64(rng.Intn(64))
				}
				addrs = append(addrs, a)
			}
		}
		slices.Sort(addrs)
		got, want := LatticePopulation(addrs), oracleLatticePopulation(addrs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%d addrs): got %v, want %v", i, len(addrs), got, want)
		}
	}
}

// TestSortRanks pins both strategies of sortRanks — the presence bitmap
// over dense spans and the sort over sparse ones — to a plain sort.
func TestSortRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var bitmap []uint64
	for i := 0; i < 500; i++ {
		span := 1 + rng.Intn(1<<rng.Intn(16))
		seen := map[uint32]bool{}
		var ranks []uint32
		for range rng.Intn(300) {
			r := uint32(rng.Intn(span)) + 1000
			if !seen[r] {
				seen[r] = true
				ranks = append(ranks, r)
			}
		}
		want := slices.Sorted(slices.Values(ranks))
		bitmap = sortRanks(ranks, bitmap)
		if !slices.Equal(ranks, want) {
			t.Fatalf("case %d: got %v, want %v", i, ranks, want)
		}
	}
}

// TestSweepWideTriggerGaps pins that trigger gaps past the interval
// histogram's last bucket — a gap of 2^50 loads, or a trigger that
// decreases and so wraps — land in that bucket rather than indexing
// past it: such traces arrive by upload, and the sweep's panic took
// the whole daemon down.
func TestSweepWideTriggerGaps(t *testing.T) {
	for _, triggers := range [][]uint64{{1, 1 << 50}, {1 << 50, 5}} {
		tr := &trace.Trace{Module: "gaps", Period: 100}
		for si, trg := range triggers {
			tr.AddSample(si, 0, trg)
			tr.AppendRecord(&trace.Record{Addr: 0x1000, Proc: "f"})
		}
		sw, err := NewSweep(context.Background(), tr, nil, 64, SweepEverything, Stats{})
		if err != nil {
			t.Fatal(err)
		}
		want := []IntervalBucket{{Log2: maxLog - 1, Inter: 1}}
		if !reflect.DeepEqual(sw.Intervals, want) {
			t.Errorf("triggers %v: intervals %+v, want %+v", triggers, sw.Intervals, want)
		}
		CheckSweep(t, tr, nil, 64)
	}
}
