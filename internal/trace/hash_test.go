package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestEncodeDecode pins the byte-slice convenience wrappers against
// the streaming Write/Read pair.
func TestEncodeDecode(t *testing.T) {
	tr := synthetic(7, 3, 40)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Error("Encode differs from Write")
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("Decode(Encode(t)) != t")
	}
	if _, err := Decode(enc[:len(enc)/2]); err == nil {
		t.Error("truncated decode accepted")
	}
}

// TestHash pins the content address: deterministic, equal for equal
// content, different for different content, and sized like SHA-256.
func TestHash(t *testing.T) {
	a, b := synthetic(7, 3, 40), synthetic(7, 3, 40)
	if a.Hash() != b.Hash() {
		t.Error("equal traces hash differently")
	}
	if got := len(a.Hash()); got != 64 {
		t.Errorf("hash length %d, want 64 hex chars", got)
	}
	if a.Hash() != a.Hash() {
		t.Error("hash not deterministic")
	}
	c := synthetic(8, 3, 40)
	if a.Hash() == c.Hash() {
		t.Error("different traces collide")
	}
	// A single-record mutation must change the hash.
	d := synthetic(7, 3, 40)
	d.Addrs()[0]++
	if a.Hash() == d.Hash() {
		t.Error("mutated trace hash unchanged")
	}
}

// TestEncodedSize pins the store accounting helper, and EncodingHash
// of the same bytes against Hash.
func TestEncodedSize(t *testing.T) {
	tr := synthetic(7, 3, 40)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.EncodedSize(); got != int64(len(enc)) {
		t.Errorf("EncodedSize = %d, want %d", got, len(enc))
	}
	if got, want := EncodingHash(enc), tr.Hash(); got != want {
		t.Errorf("EncodingHash = %s, want %s", got, want)
	}
}

// TestHashAndSize pins the single-pass upload helper against the
// separate Hash and EncodedSize walks.
func TestHashAndSize(t *testing.T) {
	tr := synthetic(7, 3, 40)
	hash, size := tr.HashAndSize()
	if want := tr.Hash(); hash != want {
		t.Errorf("HashAndSize hash = %s, want %s", hash, want)
	}
	if want := tr.EncodedSize(); size != want {
		t.Errorf("HashAndSize size = %d, want %d", size, want)
	}
}

// TestWriteTo pins the io.WriterTo variant: same bytes as Write, with
// the byte count reported.
func TestWriteTo(t *testing.T) {
	tr := synthetic(7, 3, 40)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Error("WriteTo bytes differ from Encode")
	}
	if n != int64(len(enc)) {
		t.Errorf("WriteTo reported %d bytes, want %d", n, len(enc))
	}
}

// TestHasher pins the incremental identity: bytes fed chunk by chunk —
// as an upload body arrives — yield the same (hash, size) pair as the
// single-pass HashAndSize, regardless of chunking.
func TestHasher(t *testing.T) {
	tr := synthetic(7, 3, 40)
	wantID, wantSize := tr.HashAndSize()

	// Streamed whole via WriteTo.
	h := NewHasher()
	if _, err := tr.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if id, size := h.Sum(); id != wantID || size != wantSize {
		t.Errorf("WriteTo into Hasher = (%s, %d), want (%s, %d)", id, size, wantID, wantSize)
	}

	// Fed byte by byte, as a chunked transfer would.
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHasher()
	for _, b := range enc {
		h2.Write([]byte{b})
	}
	if id, size := h2.Sum(); id != wantID || size != wantSize {
		t.Errorf("byte-wise Hasher = (%s, %d), want (%s, %d)", id, size, wantID, wantSize)
	}
}
