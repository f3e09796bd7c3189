package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
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
	f.Add([]byte("MGTR"))
	f.Add([]byte("not a trace"))
	for _, enc := range badClassEncodings(f) {
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		for _, c := range got.Classes() {
			if c > byte(dataflow.Irregular) {
				t.Fatalf("decoded class %d, outside the three access classes", c)
			}
		}
		enc, err := got.Encode()
		if err != nil {
			t.Fatalf("decoded trace failed to encode: %v", err)
		}
		re, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Hash() != got.Hash() {
			t.Fatal("hash not stable across re-encode")
		}
	})
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
