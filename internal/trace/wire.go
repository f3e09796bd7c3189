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
// to storage. Column values are transformed before encoding:
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

	"github.com/memgaze/memgaze-go/internal/dataflow"
)

const fileVersion = 3

// maxSection bounds a single length-prefixed string in the MGTR
// format, so a corrupt or hostile length prefix cannot force a huge
// allocation before the read fails.
const maxSection = 1 << 30

// maxPrealloc bounds slice capacity reserved from a count read out of
// the header. Counts above it are still honoured — the slices grow by
// append, so an inflated count fails with io.EOF once the input runs
// out instead of OOMing up front.
const maxPrealloc = 1 << 16

// maxRecords bounds the total record count a v3 sample index may
// claim. A tiny hostile body declaring 2^35 records fails here — a
// decode error the server maps to 400 invalid_trace — instead of
// driving column decoding toward enormous allocations. Legitimate
// traces sit many orders of magnitude below the cap.
const maxRecords = 1 << 32

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

	// Columns. One scratch buffer holds each column's transformed
	// values in turn; fill walks samples so views (absolute, possibly
	// non-dense ranges) serialise exactly like owned traces.
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
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		var prev uint64
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.ips[i] - prev))
			prev = t.ips[i]
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		var prev uint64
		for i := lo; i < hi; i++ {
			dst[i-lo] = t.ts[i] - prev
			prev = t.ts[i]
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = uint64(t.classes[i])
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = uint64(t.implied[i])
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.strides[i]))
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = zigzag(int64(t.lines[i]))
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	fill(func(dst []uint64, lo, hi int) int {
		for i := lo; i < hi; i++ {
			dst[i-lo] = uint64(remap[t.procIDs[i]])
		}
		return hi - lo
	})
	writeColumn(bw, writeU, scratch)

	return bw.Flush()
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// writeColumn emits one column: whichever of raw-varint or RLE encodes
// vals in fewer bytes. The choice is deterministic (strictly-smaller
// wins for RLE) so identical values always produce identical bytes.
func writeColumn(bw *bufio.Writer, writeU func(uint64), vals []uint64) {
	rawSize, rleSize := 0, 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		rawSize += uvarintLen(vals[i]) * (j - i)
		rleSize += uvarintLen(vals[i]) + uvarintLen(uint64(j-i))
		i = j
	}
	if rleSize < rawSize {
		bw.WriteByte(colRLE)
		for i := 0; i < len(vals); {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			writeU(vals[i])
			writeU(uint64(j - i))
			i = j
		}
		return
	}
	bw.WriteByte(colRaw)
	for _, v := range vals {
		writeU(v)
	}
}

// Read deserialises a trace in any MGTR version (v1–v3).
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if string(magic[:]) != "MGTR" {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	readU := func() (uint64, error) { return binary.ReadUvarint(br) }
	readStr := func() (string, error) {
		n, err := readU()
		if err != nil {
			return "", err
		}
		if n > maxSection {
			return "", fmt.Errorf("trace: string of %d bytes exceeds limit", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	ver, err := readU()
	if err != nil {
		return nil, err
	}
	if ver < 1 || ver > fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	t := &Trace{}
	if t.Module, err = readStr(); err != nil {
		return nil, err
	}
	if t.Mode, err = readStr(); err != nil {
		return nil, err
	}
	gets := []*uint64{&t.Period, nil, &t.TotalLoads, &t.Bytes, &t.DroppedEvents, &t.RecordedEvents}
	if ver >= 2 {
		gets = append(gets, &t.LostBytes)
	}
	for i, p := range gets {
		v, err := readU()
		if err != nil {
			return nil, err
		}
		if i == 1 {
			t.BufBytes = int(v)
		} else {
			*p = v
		}
	}
	nstr, err := readU()
	if err != nil {
		return nil, err
	}
	strs := make([]string, 0, min(nstr, maxPrealloc))
	for i := uint64(0); i < nstr; i++ {
		s, err := readStr()
		if err != nil {
			return nil, err
		}
		strs = append(strs, s)
	}
	if ver >= 3 {
		err = readV3Body(t, br, readU, strs)
	} else {
		err = readLegacyBody(t, readU, strs)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// readV3Body reads the columnar sample index and columns.
func readV3Body(t *Trace, br *bufio.Reader, readU func() (uint64, error), strs []string) error {
	nsmp, err := readU()
	if err != nil {
		return err
	}
	t.samples = make([]SampleInfo, 0, min(nsmp, maxPrealloc))
	var total uint64
	for si := uint64(0); si < nsmp; si++ {
		seq, err := readU()
		if err != nil {
			return err
		}
		cpu, err := readU()
		if err != nil {
			return err
		}
		trg, err := readU()
		if err != nil {
			return err
		}
		nrec, err := readU()
		if err != nil {
			return err
		}
		total += nrec
		if total > maxRecords {
			return fmt.Errorf("trace: implausible record count %d", total)
		}
		t.samples = append(t.samples, SampleInfo{Seq: int(seq), CPU: int(cpu),
			TriggerLoads: trg, Lo: int(total - nrec), Hi: int(total)})
	}
	n := int(total)

	// Each column grows by append with capped preallocation, so a
	// claimed-but-truncated count fails cheaply at EOF. RLE run
	// lengths are validated against the remaining column capacity.
	readCol := func(push func(v uint64)) error {
		tag, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch tag {
		case colRaw:
			for i := 0; i < n; i++ {
				v, err := readU()
				if err != nil {
					return err
				}
				push(v)
			}
		case colRLE:
			for left := n; left > 0; {
				v, err := readU()
				if err != nil {
					return err
				}
				run, err := readU()
				if err != nil {
					return err
				}
				if run == 0 || run > uint64(left) {
					return fmt.Errorf("trace: bad run length %d (%d records left)", run, left)
				}
				for i := uint64(0); i < run; i++ {
					push(v)
				}
				left -= int(run)
			}
		default:
			return fmt.Errorf("trace: bad column tag %d", tag)
		}
		return nil
	}
	capN := min(n, maxPrealloc)

	t.addrs = make([]uint64, 0, capN)
	if err := readCol(func(v uint64) { t.addrs = append(t.addrs, v) }); err != nil {
		return err
	}
	for i := range t.samples {
		s := &t.samples[i]
		var prev uint64
		for j := s.Lo; j < s.Hi; j++ {
			prev += uint64(unzigzag(t.addrs[j]))
			t.addrs[j] = prev
		}
	}

	t.ips = make([]uint64, 0, capN)
	if err := readCol(func(v uint64) { t.ips = append(t.ips, v) }); err != nil {
		return err
	}
	for i := range t.samples {
		s := &t.samples[i]
		var prev uint64
		for j := s.Lo; j < s.Hi; j++ {
			prev += uint64(unzigzag(t.ips[j]))
			t.ips[j] = prev
		}
	}

	t.ts = make([]uint64, 0, capN)
	if err := readCol(func(v uint64) { t.ts = append(t.ts, v) }); err != nil {
		return err
	}
	for i := range t.samples {
		s := &t.samples[i]
		var prev uint64
		for j := s.Lo; j < s.Hi; j++ {
			prev += t.ts[j]
			t.ts[j] = prev
		}
	}

	t.classes = make([]byte, 0, capN)
	badClass := uint64(0)
	if err := readCol(func(v uint64) {
		if v > uint64(dataflow.Irregular) {
			badClass = v
		}
		t.classes = append(t.classes, byte(v))
	}); err != nil {
		return err
	}
	if badClass != 0 {
		return badClassErr(badClass)
	}
	t.implied = make([]uint32, 0, capN)
	if err := readCol(func(v uint64) { t.implied = append(t.implied, uint32(v)) }); err != nil {
		return err
	}
	t.strides = make([]int32, 0, capN)
	if err := readCol(func(v uint64) { t.strides = append(t.strides, int32(unzigzag(v))) }); err != nil {
		return err
	}
	t.lines = make([]int32, 0, capN)
	if err := readCol(func(v uint64) { t.lines = append(t.lines, int32(unzigzag(v))) }); err != nil {
		return err
	}
	t.procIDs = make([]uint32, 0, capN)
	if err := readCol(func(v uint64) { t.procIDs = append(t.procIDs, uint32(v)) }); err != nil {
		return err
	}
	for _, id := range t.procIDs {
		if uint64(id) >= uint64(len(strs)) {
			return fmt.Errorf("trace: bad string index %d", id)
		}
	}
	if len(strs) > 0 {
		t.procs = strs
		t.procIdx = make(map[string]uint32, len(strs))
		for i, s := range strs {
			t.procIdx[s] = uint32(i)
		}
	}
	return nil
}

// readLegacyBody reads the row-oriented v1/v2 sample section into the
// columnar arena.
func readLegacyBody(t *Trace, readU func() (uint64, error), strs []string) error {
	nstr := uint64(len(strs))
	// Lazy remap from file string index to interned proc id preserves
	// first-use order — the determinism contract — even if the file's
	// table holds unused entries.
	remap := make([]int64, len(strs))
	for i := range remap {
		remap[i] = -1
	}
	nsmp, err := readU()
	if err != nil {
		return err
	}
	t.samples = make([]SampleInfo, 0, min(nsmp, maxPrealloc))
	for si := uint64(0); si < nsmp; si++ {
		seq, err := readU()
		if err != nil {
			return err
		}
		cpu, err := readU()
		if err != nil {
			return err
		}
		trg, err := readU()
		if err != nil {
			return err
		}
		nrec, err := readU()
		if err != nil {
			return err
		}
		t.AddSample(int(seq), int(cpu), trg)
		var lastIP, lastAddr, lastTS uint64
		for ri := uint64(0); ri < nrec; ri++ {
			dip, err := readU()
			if err != nil {
				return err
			}
			daddr, err := readU()
			if err != nil {
				return err
			}
			dts, err := readU()
			if err != nil {
				return err
			}
			cls, err := readU()
			if err != nil {
				return err
			}
			imp, err := readU()
			if err != nil {
				return err
			}
			stride, err := readU()
			if err != nil {
				return err
			}
			line, err := readU()
			if err != nil {
				return err
			}
			sidx, err := readU()
			if err != nil {
				return err
			}
			if sidx >= nstr {
				return fmt.Errorf("trace: bad string index %d", sidx)
			}
			if cls > uint64(dataflow.Irregular) {
				return badClassErr(cls)
			}
			lastIP += uint64(unzigzag(dip))
			lastAddr += uint64(unzigzag(daddr))
			lastTS += dts
			if remap[sidx] < 0 {
				remap[sidx] = int64(t.intern(strs[sidx]))
			}
			t.addrs = append(t.addrs, lastAddr)
			t.ips = append(t.ips, lastIP)
			t.ts = append(t.ts, lastTS)
			t.classes = append(t.classes, byte(cls))
			t.implied = append(t.implied, uint32(imp))
			t.strides = append(t.strides, int32(unzigzag(stride)))
			t.lines = append(t.lines, int32(unzigzag(line)))
			t.procIDs = append(t.procIDs, uint32(remap[sidx]))
		}
		t.samples[len(t.samples)-1].Hi = len(t.addrs)
	}
	return nil
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

// Decode deserialises a trace from its MGTR binary form, as produced by
// Encode or Write (any version).
func Decode(b []byte) (*Trace, error) {
	return Read(bytes.NewReader(b))
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
