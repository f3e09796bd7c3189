package trace

// MGTR wire format.
//
// All versions share the frame: "MGTR" magic, uvarint version, module
// and mode strings, eight uvarint metadata fields (seven before v2's
// LostBytes), an interned proc-name table, and a sample section.
//
// v1/v2 are row-oriented: per sample a record count, then each record's
// eight fields as varints with per-sample delta state on IP/Addr/TS.
// The readers are kept forever; WriteLegacy still produces them for
// fixtures and size comparisons.
//
// v3 is columnar, mirroring the in-memory arena. After the header and
// string table comes the sample index — per sample (seq, cpu, trigger,
// nrecs) varints — and then the eight columns, each a one-byte tag
// followed by its payload:
//
//	tag 0: raw     — one uvarint per record
//	tag 1: RLE     — (value, runlen) uvarint pairs covering the column
//
// The writer computes both sizes and emits whichever is smaller, so
// constant columns (classes in a single-class trace, proc ids inside
// one function, zero strides) collapse to a few bytes — the paper's
// §III-B observation that Strided and Constant loads compress, applied
// to storage. A run is cut into several pairs where one pair would
// expand past maxExpansion values per column byte read, so every
// encoding passes DecodeBounded. Column values are transformed before
// encoding:
//
//	addrs, ips : per-sample base, zigzag delta (resets each sample)
//	ts         : per-sample delta
//	strides, lines : zigzag
//	classes, implied, proc ids : identity
//
// Determinism contract: the proc table is written in first-use record
// order and contains only used names, so encoding is a pure function
// of trace content — the same records produce the same bytes whatever
// construction path (builder, decode, merge, view) produced them, and
// the content hash (SHA-256 of the encoding) is stable across a
// decode/re-encode round trip.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/bits"
)

const fileVersion = 3

// maxSection bounds a single length-prefixed string in the MGTR
// format, so a corrupt or hostile length prefix cannot force a huge
// allocation before the read fails.
const maxSection = 1 << 30

const (
	colRaw = 0 // one uvarint per record
	colRLE = 1 // (value, runlen) uvarint pairs
)

// Write serialises the trace in MGTR v3, the columnar format described
// in the package's wire-format comment.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// One hoisted scratch buffer: a per-call array would escape into
	// bw.Write and cost an allocation per varint.
	var vb [binary.MaxVarintLen64]byte
	writeU := func(v uint64) { n := binary.PutUvarint(vb[:], v); bw.Write(vb[:n]) }
	writeStr := func(s string) { writeU(uint64(len(s))); bw.WriteString(s) }

	bw.WriteString("MGTR")
	writeU(fileVersion)
	writeStr(t.Module)
	writeStr(t.Mode)
	writeU(t.Period)
	writeU(uint64(t.BufBytes))
	writeU(t.TotalLoads)
	writeU(t.Bytes)
	writeU(t.DroppedEvents)
	writeU(t.RecordedEvents)
	writeU(t.LostBytes)

	// Wire proc table: used names in first-use record order, whatever
	// order the in-memory table has (views and merges may hold unused
	// or differently-ordered entries).
	remap := make([]int64, len(t.procs))
	for i := range remap {
		remap[i] = -1
	}
	var strs []string
	for si := range t.samples {
		s := &t.samples[si]
		for _, id := range t.procIDs[s.Lo:s.Hi] {
			if remap[id] < 0 {
				remap[id] = int64(len(strs))
				strs = append(strs, t.procs[id])
			}
		}
	}
	writeU(uint64(len(strs)))
	for _, s := range strs {
		writeStr(s)
	}

	// Sample index.
	writeU(uint64(len(t.samples)))
	total := 0
	for i := range t.samples {
		s := &t.samples[i]
		writeU(uint64(s.Seq))
		writeU(uint64(s.CPU))
		writeU(s.TriggerLoads)
		writeU(uint64(s.Hi - s.Lo))
		total += s.Hi - s.Lo
	}

	// Columns. budget follows what a bounded decoder sees of them. One
	// scratch buffer holds each column's transformed
	// values in turn; fill walks samples so views (absolute, possibly
	// non-dense ranges) serialise exactly like owned traces.
	var budget colBudget
	scratch := make([]uint64, total)
	fill := func(f func(dst []uint64, lo, hi int) int) {
		n := 0
		for i := range t.samples {
			s := &t.samples[i]
			n += f(scratch[n:], s.Lo, s.Hi)
		}
	}

	fill(func(dst []uint64, lo, hi int) int {
		var prev uint64
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.addrs[i] - prev))
			prev = t.addrs[i]
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		var prev uint64
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.ips[i] - prev))
			prev = t.ips[i]
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		var prev uint64
		for i := lo; i < hi; i++ {
			dst[i-lo] = t.ts[i] - prev
			prev = t.ts[i]
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = uint64(t.classes[i])
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = uint64(t.implied[i])
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.strides[i]))
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.lines[i]))
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = uint64(remap[t.procIDs[i]])
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch, &budget)

	return bw.Flush()
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// writeColumn emits one column: whichever of raw-varint or RLE encodes
// vals in fewer bytes. The choice is deterministic (strictly-smaller
// wins for RLE) so identical values always produce identical bytes.
// RLE pairs are cut by b.pair, so the column never takes b past what
// DecodeBounded accepts.
func writeColumn(bw *bufio.Writer, writeU func(uint64), vals []uint64, b *colBudget) {
	b.bytes++ // the tag
	rawSize, rleSize, cut := 0, 0, false
	for i := 0; i < len(vals); {
		j := runEnd(vals, i)
		rawSize += uvarintLen(vals[i]) * (j - i)
		rleSize += uvarintLen(vals[i]) + uvarintLen(uint64(j-i))
		// A pair of at least two bytes carries 2·maxExpansion values
		// within the bound whatever came before, so only a longer run
		// can cross it.
		if j-i > 2*maxExpansion && b.values+uint64(j) > maxExpansion*(b.bytes+uint64(rleSize)) {
			cut = true
		}
		i = j
	}
	if !cut {
		if rleSize < rawSize {
			bw.WriteByte(colRLE)
			for i := 0; i < len(vals); {
				j := runEnd(vals, i)
				writeU(vals[i])
				writeU(uint64(j - i))
				i = j
			}
			b.bytes += uint64(rleSize)
			b.values += uint64(len(vals))
			return
		}
	} else if rle := b.cutRuns(vals, nil); rle.bytes-b.bytes < uint64(rawSize) {
		bw.WriteByte(colRLE)
		*b = b.cutRuns(vals, writeU)
		return
	}
	bw.WriteByte(colRaw)
	for _, v := range vals {
		writeU(v)
	}
	b.bytes += uint64(rawSize)
	b.values += uint64(len(vals))
}

// cutRuns returns b past the RLE pairs of vals, each run cut by pair,
// and writes the pairs through writeU if it is non-nil.
func (b colBudget) cutRuns(vals []uint64, writeU func(uint64)) colBudget {
	for i := 0; i < len(vals); {
		j := runEnd(vals, i)
		for left := uint64(j - i); left > 0; {
			k := b.pair(vals[i], left)
			if writeU != nil {
				writeU(vals[i])
				writeU(k)
			}
			left -= k
		}
		i = j
	}
	return b
}

// runEnd returns the end of the run of equal values starting at i.
func runEnd(vals []uint64, i int) int {
	j := i + 1
	for j < len(vals) && vals[j] == vals[i] {
		j++
	}
	return j
}

// colBudget is what a bounded decoder has read of the v3 columns so
// far: their bytes and the values they expand to.
type colBudget struct{ bytes, values uint64 }

// pair returns how many of n copies of v the next RLE pair carries —
// all n unless that would take the values past maxExpansion per column
// byte, the most that stays within it if so — and advances b past the
// pair. Values never exceed maxExpansion per byte of b, so a pair can
// always carry at least maxExpansion × 2 values: cutting a run costs
// one pair per that many values.
func (b *colBudget) pair(v, n uint64) uint64 {
	for {
		size := uint64(uvarintLen(v) + uvarintLen(n))
		if limit := maxExpansion * (b.bytes + size); b.values+n > limit {
			n = limit - b.values
			continue
		}
		b.bytes += size
		b.values += n
		return n
	}
}

// WriteLegacy serialises the trace in the row-oriented MGTR v1 or v2
// format — kept for cross-version fixtures, size comparisons, and
// downgrade paths. Current writers use Write (v3).
func (t *Trace) WriteLegacy(w io.Writer, version int) error {
	if version < 1 || version > 2 {
		return fmt.Errorf("trace: WriteLegacy supports versions 1-2, got %d", version)
	}
	bw := bufio.NewWriter(w)
	// One hoisted scratch buffer: a per-call array would escape into
	// bw.Write and cost an allocation per varint.
	var vb [binary.MaxVarintLen64]byte
	writeU := func(v uint64) { n := binary.PutUvarint(vb[:], v); bw.Write(vb[:n]) }
	writeStr := func(s string) { writeU(uint64(len(s))); bw.WriteString(s) }

	remap := make([]int64, len(t.procs))
	for i := range remap {
		remap[i] = -1
	}
	var strs []string
	for si := range t.samples {
		s := &t.samples[si]
		for _, id := range t.procIDs[s.Lo:s.Hi] {
			if remap[id] < 0 {
				remap[id] = int64(len(strs))
				strs = append(strs, t.procs[id])
			}
		}
	}

	bw.WriteString("MGTR")
	writeU(uint64(version))
	writeStr(t.Module)
	writeStr(t.Mode)
	writeU(t.Period)
	writeU(uint64(t.BufBytes))
	writeU(t.TotalLoads)
	writeU(t.Bytes)
	writeU(t.DroppedEvents)
	writeU(t.RecordedEvents)
	if version >= 2 {
		writeU(t.LostBytes)
	}
	writeU(uint64(len(strs)))
	for _, s := range strs {
		writeStr(s)
	}
	writeU(uint64(len(t.samples)))
	for si := range t.samples {
		s := &t.samples[si]
		writeU(uint64(s.Seq))
		writeU(uint64(s.CPU))
		writeU(s.TriggerLoads)
		writeU(uint64(s.Hi - s.Lo))
		var lastIP, lastAddr, lastTS uint64
		for i := s.Lo; i < s.Hi; i++ {
			writeU(zigzag(int64(t.ips[i] - lastIP)))
			writeU(zigzag(int64(t.addrs[i] - lastAddr)))
			writeU(t.ts[i] - lastTS)
			writeU(uint64(t.classes[i]))
			writeU(uint64(t.implied[i]))
			writeU(zigzag(int64(t.strides[i])))
			writeU(zigzag(int64(t.lines[i])))
			writeU(uint64(remap[t.procIDs[i]]))
			lastIP, lastAddr, lastTS = t.ips[i], t.addrs[i], t.ts[i]
		}
	}
	return bw.Flush()
}

// EncodeLegacy serialises the trace to MGTR v1 or v2 bytes in memory.
func (t *Trace) EncodeLegacy(version int) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteLegacy(&buf, version); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode serialises the trace to its MGTR binary form in memory — the
// HTTP-friendly counterpart of Write. Decode inverts it.
func (t *Trace) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Hash returns the trace's content hash: the hex SHA-256 of its MGTR
// encoding. Two traces hash equal exactly when their serialised forms
// are byte-identical, so the hash survives a Write/Read round trip and
// is a stable identity for content-addressed stores.
func (t *Trace) Hash() string {
	h := sha256.New()
	t.Write(h) // hash.Hash writes never fail
	return hex.EncodeToString(h.Sum(nil))
}

// EncodingHash returns the content hash of an MGTR encoding already in
// memory — the id Hash computes for the trace it encodes, without a
// second serialisation pass.
func EncodingHash(enc []byte) string {
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// EncodedSize returns the size in bytes of the trace's MGTR encoding
// without materialising it.
func (t *Trace) EncodedSize() int64 {
	var cw countWriter
	t.Write(&cw)
	return cw.n
}

// HashAndSize returns Hash and EncodedSize from a single serialisation
// pass — what an upload path wants, instead of walking the trace twice.
func (t *Trace) HashAndSize() (string, int64) {
	h := NewHasher()
	t.Write(h)
	return h.Sum()
}

// WriteTo streams the trace's MGTR encoding to w and reports the bytes
// written, implementing io.WriterTo: io.Copy-style consumers — a raw
// download response, a store spilling to disk — serialise a trace
// without materialising the encoding in memory first.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var cw countWriter
	err := t.Write(io.MultiWriter(&cw, w))
	return cw.n, err
}

// Hasher computes a trace's content identity incrementally: an
// io.Writer that hashes and counts every MGTR byte written through it.
// Stream a trace into one (t.Write(h), or tee a serialised body through
// it as it is read) and Sum returns the same pair as HashAndSize —
// without the encoding ever being resident.
type Hasher struct {
	h hash.Hash
	n int64
}

// NewHasher returns a Hasher ready to receive MGTR bytes.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Write feeds bytes into the identity; it never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	h.h.Write(p)
	h.n += int64(len(p))
	return len(p), nil
}

// Sum returns the content hash of the bytes written so far and their
// count. It does not consume the state: more writes may follow.
func (h *Hasher) Sum() (id string, size int64) {
	return hex.EncodeToString(h.h.Sum(nil)), h.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// badClassErr rejects a record class outside the three access classes:
// the analyses index per-class arrays by it.
func badClassErr(cls uint64) error { return fmt.Errorf("trace: bad access class %d", cls) }
