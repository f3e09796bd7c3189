package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/memgaze/memgaze-go/internal/dataflow"
)

// maxPrealloc bounds slice capacity reserved from a count read out of
// the header (string table, sample index) and, on the streamed path,
// from a column's record count. Counts above it are still honoured —
// the slices grow by append, so an inflated count fails with io.EOF
// once the input runs out instead of OOMing up front.
const maxPrealloc = 1 << 16

// maxRecords bounds the total record count a v3 sample index may
// claim: a total above it fails as an implausible record count before
// any column is read. Below it, DecodeBounded and ReadBounded bound
// what a body may decode to by maxExpansion.
const maxRecords = 1 << 32

// maxExpansion bounds how many column values a v3 body read by
// DecodeBounded or ReadBounded may materialize per column byte — 40
// records, a record being eight column values. Only the columns' own
// bytes count, from the first column's tag on, so padding the header,
// string table or sample index buys nothing. The decoder fails as soon
// as the values decoded so far exceed maxExpansion times the column
// bytes read so far, checking before it expands each RLE run, so a
// short body whose runs claim millions of records fails before it
// allocates them, on the buffered and the streamed path alike. Write
// cuts an RLE run wherever its whole length would cross the bound (see
// colBudget.pair), so every encoding it produces passes. Over every
// trace the tests and the perfbench corpus decode, the most seen at any
// check is 30.7 values per column byte, so the bound leaves 10×
// headroom and none of their encodings has a run cut.
const maxExpansion = 320

// windowSize is the byte window Read refills from its io.Reader.
const windowSize = 64 << 10

var errVarintOverflow = errors.New("trace: varint overflows a 64-bit integer")

// decoder reads MGTR varints and strings from a byte window: the whole
// input for Decode, or a buffer that Read refills from its io.Reader
// when fewer than binary.MaxVarintLen64 unread bytes remain, so every
// varint decodes with binary.Uvarint on a slice.
type decoder struct {
	r    io.Reader // nil when buf holds the whole input
	rerr error     // the error that ended r (io.EOF at its end)
	buf  []byte    // the window; buf[off:] is unread
	off  int
	base int64 // input bytes before buf[0]

	bounded  bool   // enforce maxExpansion
	colStart int64  // input bytes before the first column's tag
	values   uint64 // column values materialized
}

// consumed returns the input bytes read so far.
func (d *decoder) consumed() int64 { return d.base + int64(d.off) }

// colBytes returns the column bytes read so far.
func (d *decoder) colBytes() uint64 { return uint64(d.consumed() - d.colStart) }

// fill moves the unread bytes to the front of the window and reads
// until at least binary.MaxVarintLen64 are unread or r is done. Like
// bufio, it gives up on a reader that keeps returning nothing.
func (d *decoder) fill() {
	if d.buf == nil {
		d.buf = make([]byte, 0, windowSize)
	}
	n := copy(d.buf[:cap(d.buf)], d.buf[d.off:])
	d.base += int64(d.off)
	d.buf, d.off = d.buf[:n], 0
	for empty := 0; len(d.buf) < binary.MaxVarintLen64 && d.rerr == nil; {
		m, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		d.rerr = err
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			d.rerr = io.ErrNoProgress
		}
	}
}

// short is the error for input that ends before a value: io.EOF when
// nothing of the value was read, io.ErrUnexpectedEOF when part was,
// and the reader's own error when it failed for another reason.
func (d *decoder) short(partial bool) error {
	if d.rerr != nil && d.rerr != io.EOF {
		return d.rerr
	}
	if partial {
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}

// uvarint reads one varint.
func (d *decoder) uvarint() (uint64, error) {
	if d.r != nil && len(d.buf)-d.off < binary.MaxVarintLen64 && d.rerr == nil {
		d.fill()
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n > 0 {
		d.off += n
		return v, nil
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	return 0, d.short(d.off < len(d.buf))
}

// byte reads one byte.
func (d *decoder) byte() (byte, error) {
	if d.off == len(d.buf) && d.r != nil && d.rerr == nil {
		d.fill()
	}
	if d.off == len(d.buf) {
		return 0, d.short(false)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// str reads the next n bytes into a fresh string.
func (d *decoder) str(n uint64) (string, error) {
	if n > maxSection {
		return "", fmt.Errorf("trace: string of %d bytes exceeds limit", n)
	}
	if avail := uint64(len(d.buf) - d.off); n <= avail {
		s := string(d.buf[d.off : d.off+int(n)])
		d.off += int(n)
		return s, nil
	}
	if d.r == nil || d.rerr != nil {
		partial := d.off < len(d.buf)
		d.off = len(d.buf)
		return "", d.short(partial)
	}
	// Longer than the window holds: the unread bytes, then the rest
	// straight from r, in a buffer that grows only as bytes arrive, so
	// a claimed length the input does not back allocates nothing.
	var b bytes.Buffer
	b.Write(d.buf[d.off:])
	d.base += int64(len(d.buf))
	d.buf, d.off = d.buf[:0], 0
	m, err := io.CopyN(&b, d.r, int64(n)-int64(b.Len()))
	d.base += m
	if err != nil {
		if err == io.EOF && b.Len() > 0 {
			err = io.ErrUnexpectedEOF
		}
		d.rerr = err
		return "", err
	}
	return b.String(), nil
}

// Read deserialises a trace in any MGTR version (v1–v3), reading r
// through a byte window. It trusts the input's record counts; use
// ReadBounded for bodies from the network.
func Read(r io.Reader) (*Trace, error) {
	return decode(&decoder{r: r})
}

// Decode deserialises a trace from its MGTR binary form, as produced by
// Encode or Write (any version). The decoder's window is b itself. It
// trusts the input's record counts; use DecodeBounded for bodies from
// the network.
func Decode(b []byte) (*Trace, error) {
	return decode(&decoder{buf: b})
}

// ReadBounded is Read for untrusted input: a v3 body that would
// materialize more than maxExpansion column values per column byte
// fails instead of expanding. Everything Write produces passes.
func ReadBounded(r io.Reader) (*Trace, error) {
	return decode(&decoder{r: r, bounded: true})
}

// DecodeBounded is Decode for untrusted input, bounded as ReadBounded.
func DecodeBounded(b []byte) (*Trace, error) {
	return decode(&decoder{buf: b, bounded: true})
}

func decode(d *decoder) (*Trace, error) {
	magic, err := d.str(4)
	if err != nil {
		return nil, err
	}
	if magic != "MGTR" {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	readStr := func() (string, error) {
		n, err := d.uvarint()
		if err != nil {
			return "", err
		}
		return d.str(n)
	}
	ver, err := d.uvarint()
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
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if i == 1 {
			t.BufBytes = int(v)
		} else {
			*p = v
		}
	}
	nstr, err := d.uvarint()
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
		err = readV3Body(t, d, strs)
	} else {
		err = readLegacyBody(t, d, strs)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// readV3Body reads the columnar sample index and columns.
func readV3Body(t *Trace, d *decoder, strs []string) error {
	nsmp, err := d.uvarint()
	if err != nil {
		return err
	}
	t.samples = make([]SampleInfo, 0, min(nsmp, maxPrealloc))
	var total uint64
	for si := uint64(0); si < nsmp; si++ {
		var v [4]uint64 // seq, cpu, trigger, nrecs
		for i := range v {
			if v[i], err = d.uvarint(); err != nil {
				return err
			}
		}
		total += v[3]
		if total > maxRecords {
			return fmt.Errorf("trace: implausible record count %d", total)
		}
		t.samples = append(t.samples, SampleInfo{Seq: int(v[0]), CPU: int(v[1]),
			TriggerLoads: v[2], Lo: int(total - v[3]), Hi: int(total)})
	}
	n := int(total)

	d.colStart = d.consumed()
	if t.addrs, err = readColumn[uint64](d, n, true, nil); err != nil {
		return err
	}
	if t.ips, err = readColumn[uint64](d, n, true, nil); err != nil {
		return err
	}
	if t.ts, err = readColumn[uint64](d, n, false, nil); err != nil {
		return err
	}
	for i := range t.samples {
		s := &t.samples[i]
		var a, ip, ts uint64
		for j := s.Lo; j < s.Hi; j++ {
			a += t.addrs[j]
			ip += t.ips[j]
			ts += t.ts[j]
			t.addrs[j], t.ips[j], t.ts[j] = a, ip, ts
		}
	}
	if t.classes, err = readColumn[byte](d, n, false, checkClass); err != nil {
		return err
	}
	if t.implied, err = readColumn[uint32](d, n, false, nil); err != nil {
		return err
	}
	if t.strides, err = readColumn[int32](d, n, true, nil); err != nil {
		return err
	}
	if t.lines, err = readColumn[int32](d, n, true, nil); err != nil {
		return err
	}
	if t.procIDs, err = readColumn[uint32](d, n, false, nil); err != nil {
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

func checkClass(v uint64) error {
	if v > uint64(dataflow.Irregular) {
		return badClassErr(v)
	}
	return nil
}

// readColumn reads one v3 column of n values straight into its slice:
// a tag byte, then the raw or RLE payload. zz undoes the zigzag
// transform (addrs and ips hold zigzag deltas, undone to deltas here
// and summed by the caller); check, if non-nil, vets each value before
// its conversion to T. The slice is presized only to what the input can
// back as raw values — the unread bytes of a Decode window, maxPrealloc
// for Read — and grows by append past that. RLE run lengths are
// validated against the column's remaining count, and on the bounded
// path against maxExpansion, before they are expanded.
func readColumn[T uint64 | uint32 | int32 | byte](d *decoder, n int, zz bool, check func(uint64) error) ([]T, error) {
	backed := maxPrealloc
	if d.r == nil {
		backed = len(d.buf) - d.off
	}
	col := make([]T, 0, min(n, backed))
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case colRaw:
		for i := 0; i < n; i++ {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if check != nil {
				if err := check(v); err != nil {
					return nil, err
				}
			}
			if zz {
				v = uint64(unzigzag(v))
			}
			col = append(col, T(v))
		}
		d.values += uint64(n)
	case colRLE:
		for left := n; left > 0; {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			run, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if run == 0 || run > uint64(left) {
				return nil, fmt.Errorf("trace: bad run length %d (%d records left)", run, left)
			}
			if d.values += run; d.bounded && d.values > maxExpansion*d.colBytes() {
				return nil, fmt.Errorf("trace: %d column values from %d column bytes exceed %d per byte",
					d.values, d.colBytes(), maxExpansion)
			}
			if check != nil {
				if err := check(v); err != nil {
					return nil, err
				}
			}
			if zz {
				v = uint64(unzigzag(v))
			}
			for range run {
				col = append(col, T(v))
			}
			left -= int(run)
		}
	default:
		return nil, fmt.Errorf("trace: bad column tag %d", tag)
	}
	return col, nil
}

// readLegacyBody reads the row-oriented v1/v2 sample section into the
// columnar arena.
func readLegacyBody(t *Trace, d *decoder, strs []string) error {
	nstr := uint64(len(strs))
	// Lazy remap from file string index to interned proc id preserves
	// first-use order — the determinism contract — even if the file's
	// table holds unused entries.
	remap := make([]int64, len(strs))
	for i := range remap {
		remap[i] = -1
	}
	nsmp, err := d.uvarint()
	if err != nil {
		return err
	}
	t.samples = make([]SampleInfo, 0, min(nsmp, maxPrealloc))
	for si := uint64(0); si < nsmp; si++ {
		var h [4]uint64 // seq, cpu, trigger, nrecs
		for i := range h {
			if h[i], err = d.uvarint(); err != nil {
				return err
			}
		}
		t.AddSample(int(h[0]), int(h[1]), h[2])
		var lastIP, lastAddr, lastTS uint64
		for ri := uint64(0); ri < h[3]; ri++ {
			var f [8]uint64 // ip, addr, ts, class, implied, stride, line, string index
			for i := range f {
				if f[i], err = d.uvarint(); err != nil {
					return err
				}
			}
			dip, daddr, dts, cls, imp, stride, line, sidx := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
			if sidx >= nstr {
				return fmt.Errorf("trace: bad string index %d", sidx)
			}
			if err := checkClass(cls); err != nil {
				return err
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
