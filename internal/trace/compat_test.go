package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/trace/tracetest"
)

// TestCrossVersionRoundTrip pins the compatibility matrix: a trace
// written in the legacy v1/v2 row formats reads back into the same
// columnar arena as the v3 writer produces, field for field, and its
// content hash — defined over the canonical v3 encoding — is identical
// whichever version carried it.
func TestCrossVersionRoundTrip(t *testing.T) {
	tr := synthetic(11, 4, 60)
	wantHash := tr.Hash()
	for _, version := range []int{1, 2} {
		enc, err := tr.EncodeLegacy(version)
		if err != nil {
			t.Fatalf("v%d encode: %v", version, err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("v%d decode: %v", version, err)
		}
		if version == 1 {
			// v1 has no LostBytes field; zero it on the expectation.
			want := *tr
			want.LostBytes = 0
			if got.Hash() == wantHash && tr.LostBytes != 0 {
				t.Errorf("v1 carried LostBytes it cannot represent")
			}
			want2 := &want
			if !reflect.DeepEqual(want2, got) {
				t.Errorf("v1 round trip altered the trace")
			}
			continue
		}
		if !reflect.DeepEqual(tr, got) {
			t.Errorf("v%d round trip altered the trace", version)
		}
		if h := got.Hash(); h != wantHash {
			t.Errorf("v%d round trip changed hash: %s != %s", version, h, wantHash)
		}
	}
}

// TestV3ReencodeStable pins the determinism contract: decode(encode(t))
// re-encodes to byte-identical output, so the content hash survives any
// number of round trips.
func TestV3ReencodeStable(t *testing.T) {
	tr := synthetic(12, 3, 80)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Error("re-encoding a decoded trace changed the bytes")
	}
}

// TestV3SmallerThanV2 pins the size win on a compressible trace:
// strided addresses, single class, constant proc — the O0 toolchain
// shape §III-B's compression argument targets.
func TestV3SmallerThanV2(t *testing.T) {
	tr := &Trace{Module: "o0", Mode: "sampled", Period: 1000, TotalLoads: 1 << 20}
	for s := 0; s < 16; s++ {
		smp := &Sample{Seq: s, TriggerLoads: uint64(s+1) * 1000}
		for i := 0; i < 256; i++ {
			smp.Records = append(smp.Records, Record{
				IP:   0x401000 + uint64(i%8)*6,
				Addr: 0x2000_0000 + uint64(s*256+i)*8,
				TS:   uint64(s*256+i) * 3,
				Proc: "kernel", Implied: 1, Stride: 8,
			})
		}
		tr.AppendSample(smp)
	}
	v2, err := tr.EncodeLegacy(2)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(v3) >= len(v2) {
		t.Errorf("v3 (%d bytes) not smaller than v2 (%d bytes)", len(v3), len(v2))
	}
}

// hostileV3 builds a tiny v3 body whose sample index claims the given
// record total — the decompression-bomb shape the reader must refuse.
func hostileV3(records uint64) []byte {
	var buf bytes.Buffer
	writeU := func(v uint64) {
		var b [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	buf.WriteString("MGTR")
	writeU(3) // version
	writeU(0) // module ""
	writeU(0) // mode ""
	for i := 0; i < 7; i++ {
		writeU(0) // metadata
	}
	writeU(0)       // empty string table
	writeU(1)       // one sample...
	writeU(0)       // seq
	writeU(0)       // cpu
	writeU(0)       // trigger
	writeU(records) // ...claiming this many records
	return buf.Bytes()
}

// TestHostileRecordCount pins the v3 reader's bomb defence: a ~25-byte
// body claiming 2^35 records must fail fast with a decode error — the
// one memgazed maps to 400 invalid_trace — instead of preallocating
// toward an OOM.
func TestHostileRecordCount(t *testing.T) {
	_, err := Decode(hostileV3(1 << 35))
	if err == nil {
		t.Fatal("hostile record count accepted")
	}
	if !strings.Contains(err.Error(), "implausible record count") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestHostileRunLength pins the RLE validation: a run longer than the
// declared record count is rejected rather than expanded.
func TestHostileRunLength(t *testing.T) {
	var buf bytes.Buffer
	writeU := func(v uint64) {
		var b [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	buf.WriteString("MGTR")
	writeU(3)
	writeU(0)
	writeU(0)
	for i := 0; i < 7; i++ {
		writeU(0)
	}
	writeU(0) // empty string table
	writeU(1) // one sample
	writeU(0) // seq
	writeU(0) // cpu
	writeU(0) // trigger
	writeU(4) // four records
	// addrs column: RLE, one run claiming 2^30 records.
	buf.WriteByte(colRLE)
	writeU(7)
	writeU(1 << 30)
	_, err := Decode(buf.Bytes())
	if err == nil {
		t.Fatal("hostile run length accepted")
	}
	if !strings.Contains(err.Error(), "bad run length") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestHostileExpansion pins the expansion bound: a body whose RLE runs
// claim far more records than maxExpansion allows for its column bytes
// fails DecodeBounded and ReadBounded alike, before the runs expand and
// whatever padding precedes the columns, while Decode and Read, which
// trust their input, still read an over-bound body small enough to
// expand, and a body of the same shape within the bound decodes
// everywhere.
func TestHostileExpansion(t *testing.T) {
	for _, c := range []struct {
		records uint64
		pad     int
	}{{1 << 22, 0}, {1 << 31, 0}, {1 << 32, 4 << 20}, {1 << 20, 64 << 10}} {
		body := tracetest.RLEBomb(c.records, c.pad)
		if _, err := DecodeBounded(body); err == nil || !strings.Contains(err.Error(), "per byte") {
			t.Errorf("DecodeBounded, %d records in %d bytes: err = %v, want the expansion bound", c.records, len(body), err)
		}
		if _, err := ReadBounded(iotest.OneByteReader(bytes.NewReader(body))); err == nil || !strings.Contains(err.Error(), "per byte") {
			t.Errorf("ReadBounded, %d records in %d bytes: err = %v, want the expansion bound", c.records, len(body), err)
		}
	}
	over := tracetest.RLEBomb(4000, 0)
	if _, err := DecodeBounded(over); err == nil {
		t.Errorf("DecodeBounded accepted 4000 records from %d bytes", len(over))
	}
	for name, dec := range map[string]func([]byte) (*Trace, error){
		"Decode": Decode,
		"Read":   func(b []byte) (*Trace, error) { return Read(bytes.NewReader(b)) },
	} {
		tr, err := dec(over)
		if err != nil || tr.NumRecords() != 4000 {
			t.Errorf("%s of an over-bound body: %v", name, err)
		}
	}
	// Two records per column stay far within the bound.
	tr, err := DecodeBounded(tracetest.RLEBomb(2, 0))
	if err != nil {
		t.Fatalf("small RLE body: %v", err)
	}
	if tr.NumRecords() != 2 {
		t.Errorf("small RLE body decoded %d records, want 2", tr.NumRecords())
	}
}

// compressible builds a trace whose every column is one value per
// sample: a single strided load, timestamps stepping by one, one
// procedure and line — the shape whose RLE runs outgrow maxExpansion.
func compressible(samples, recsPer int) *Trace {
	t := &Trace{Module: "strided", Mode: "sampled", Period: 10_000}
	var ts uint64
	for s := 0; s < samples; s++ {
		smp := &Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recsPer; i++ {
			ts++
			smp.Records = append(smp.Records, Record{
				IP: 0x401000, Addr: 0x20000000 + uint64(s*recsPer+i)*8, TS: ts,
				Class: dataflow.Strided, Stride: 8, Line: 12, Proc: "loop",
			})
		}
		t.AppendSample(smp)
	}
	return t
}

// TestCompressibleRoundTrip pins that Encode and the bounded decoders
// agree: a trace whose columns would each be one RLE run per sample —
// thousands of records to a handful of bytes — encodes with its runs
// cut to the bound, and DecodeBounded and ReadBounded read it back to
// the same content, while an encoding within the bound has no run cut.
func TestCompressibleRoundTrip(t *testing.T) {
	for _, shape := range [][2]int{{1, 4000}, {1, 1 << 16}, {64, 4000}} {
		tr := compressible(shape[0], shape[1])
		enc, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for name, dec := range map[string]func([]byte) (*Trace, error){
			"DecodeBounded": DecodeBounded,
			"ReadBounded":   func(b []byte) (*Trace, error) { return ReadBounded(iotest.HalfReader(bytes.NewReader(b))) },
			"Decode":        Decode,
		} {
			got, err := dec(enc)
			if err != nil {
				t.Fatalf("%v: %s of its %d-byte encoding: %v", shape, name, len(enc), err)
			}
			if got.Hash() != tr.Hash() || !reflect.DeepEqual(got.AllSamples(), tr.AllSamples()) {
				t.Errorf("%v: %s changed the trace", shape, name)
			}
		}
		// The bound needs one column byte per maxExpansion values; past
		// that each sample adds its index entry and its base values.
		if limit := 64 + 64*shape[0] + 8*shape[0]*shape[1]/maxExpansion; len(enc) > limit {
			t.Errorf("%v: encoding is %d bytes, want at most %d", shape, len(enc), limit)
		}
	}
	tr := synthetic(3, 4, 64)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if re, _ := got.Encode(); !bytes.Equal(re, enc) {
		t.Error("re-encoding changed an encoding within the bound")
	}
}

// TestReadMatchesDecode pins the two ends of the one decoder: Read
// through readers that hand out one byte, or half the asked-for bytes,
// at a time decodes every wire version to the same trace as Decode of
// the whole slice — a module string longer than the window included —
// and truncations fail on both.
func TestReadMatchesDecode(t *testing.T) {
	long := synthetic(5, 3, 40)
	long.Module = strings.Repeat("m", windowSize+100)
	for i, tr := range []*Trace{synthetic(3, 6, 80), synthetic(4, 1, 0), long, {}} {
		for _, v := range []int{1, 2, 3} {
			var enc []byte
			var err error
			if v == 3 {
				enc, err = tr.Encode()
			} else {
				enc, err = tr.EncodeLegacy(v)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decode(enc)
			if err != nil {
				t.Fatalf("trace %d v%d: Decode: %v", i, v, err)
			}
			for _, r := range []io.Reader{iotest.OneByteReader(bytes.NewReader(enc)), iotest.HalfReader(bytes.NewReader(enc)), bytes.NewReader(enc)} {
				got, err := Read(r)
				if err != nil {
					t.Fatalf("trace %d v%d: Read: %v", i, v, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trace %d v%d: Read diverges from Decode", i, v)
				}
			}
			for _, cut := range []int{0, 3, len(enc) / 2, len(enc) - 1} {
				if cut >= len(enc) {
					continue
				}
				if _, err := Decode(enc[:cut]); err == nil {
					t.Errorf("trace %d v%d: Decode of %d/%d bytes succeeded", i, v, cut, len(enc))
				}
				if _, err := Read(iotest.HalfReader(bytes.NewReader(enc[:cut]))); err == nil {
					t.Errorf("trace %d v%d: Read of %d/%d bytes succeeded", i, v, cut, len(enc))
				}
			}
		}
	}
}

// TestReadLongStringClaim pins that a string length the input does not
// back costs no allocation of that length on the streamed path: a
// module string claiming 2^30 bytes, followed by a few, fails as a
// truncation having allocated a small fraction of the claim.
func TestReadLongStringClaim(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("MGTR")
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutUvarint(b[:], 3)])
	buf.Write(b[:binary.PutUvarint(b[:], 1<<30)])
	buf.WriteString(strings.Repeat("m", windowSize+100))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("allocated %d bytes for a %d-byte body", alloc, buf.Len())
	}
}

// TestReadPassesReaderErrors pins that a reader's own failure — the
// served stream path's body-size limit, say — surfaces as itself, not
// as a truncation.
func TestReadPassesReaderErrors(t *testing.T) {
	enc, err := synthetic(6, 4, 50).Encode()
	if err != nil {
		t.Fatal(err)
	}
	r := io.MultiReader(bytes.NewReader(enc[:len(enc)/2]), iotest.ErrReader(iotest.ErrTimeout))
	if _, err := Read(r); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("err = %v, want the reader's error", err)
	}
	// A reader that keeps returning nothing fails rather than spins.
	r = io.MultiReader(bytes.NewReader(enc[:len(enc)/2]), emptyReader{})
	if _, err := Read(r); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("err = %v, want io.ErrNoProgress", err)
	}
}

// emptyReader returns no bytes and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// badClassEncodings returns a one-record trace whose class is out of
// range (3 and 255) in every wire version.
func badClassEncodings(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, cls := range []byte{3, 255} {
		tr := &Trace{Module: "bad-class"}
		tr.AddSample(0, 0, 1)
		tr.AppendRecord(&Record{Addr: 0x1000, Proc: "f"})
		tr.classes[0] = cls // the wire writers emit the byte as is
		for v := 1; v <= 3; v++ {
			var enc []byte
			var err error
			if v == 3 {
				enc, err = tr.Encode()
			} else {
				enc, err = tr.EncodeLegacy(v)
			}
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, enc)
		}
	}
	return out
}

// TestDecodeRejectsBadClass pins that a class outside Constant,
// Strided and Irregular fails decoding in every wire version: the
// analyses index per-class arrays by it.
func TestDecodeRejectsBadClass(t *testing.T) {
	for i, enc := range badClassEncodings(t) {
		_, err := Decode(enc)
		if err == nil || !strings.Contains(err.Error(), "bad access class") {
			t.Errorf("encoding %d: err = %v, want bad access class", i, err)
		}
	}
}

// FuzzDecode throws arbitrary bytes at the multi-version reader. Any
// input that decodes must re-encode deterministically and decode again
// to the same hash; everything else must fail with an error, never a
// panic or a runaway allocation.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid encodings of every wire version, the empty
	// trace, and the hostile shapes the reader must keep rejecting.
	tr := synthetic(21, 3, 20)
	if enc, err := tr.Encode(); err == nil {
		f.Add(enc)
	}
	for _, v := range []int{1, 2} {
		if enc, err := tr.EncodeLegacy(v); err == nil {
			f.Add(enc)
		}
	}
	if enc, err := (&Trace{}).Encode(); err == nil {
		f.Add(enc)
	}
	f.Add(hostileV3(1 << 35))
	f.Add(tracetest.RLEBomb(1<<22, 0))
	f.Add(tracetest.RLEBomb(4000, 0))
	f.Add(tracetest.RLEBomb(3, 0))
	if enc, err := compressible(2, 2000).Encode(); err == nil {
		f.Add(enc)
	}
	f.Add([]byte("MGTR"))
	f.Add([]byte("not a trace"))
	for _, enc := range badClassEncodings(f) {
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBounded(data)
		if err != nil {
			return
		}
		// A record is eight column values; no body expands past
		// maxExpansion values per input byte.
		if v := 8 * uint64(got.NumRecords()); v > maxExpansion*uint64(len(data)) {
			t.Fatalf("%d bytes decoded to %d records, past %d column values per byte", len(data), got.NumRecords(), maxExpansion)
		}
		for _, c := range got.Classes() {
			if c > byte(dataflow.Irregular) {
				t.Fatalf("decoded class %d, outside the three access classes", c)
			}
		}
		if tr, err := Decode(data); err != nil || tr.Hash() != got.Hash() {
			t.Fatalf("Decode disagrees with DecodeBounded: %v", err)
		}
		enc, err := got.Encode()
		if err != nil {
			t.Fatalf("decoded trace failed to encode: %v", err)
		}
		// Whatever the writer produces passes the bound.
		re, err := DecodeBounded(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Hash() != got.Hash() {
			t.Fatal("hash not stable across re-encode")
		}
	})
}

// BenchmarkDecodeV3 tracks the columnar reader's cost on the trace
// BenchmarkEncodeV3 writes — what every cold analyze pays.
func BenchmarkDecodeV3(b *testing.B) {
	enc, err := synthetic(42, 256, 512).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeV3 tracks the columnar writer's cost — the encode_v3
// gate entry of memgaze-bench measures the same operation.
func BenchmarkEncodeV3(b *testing.B) {
	tr := synthetic(42, 256, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
