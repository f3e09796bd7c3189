// Package tracetest builds hostile MGTR bodies for the tests of the
// trace decoder and of the services that decode uploads.
package tracetest

import (
	"bytes"
	"encoding/binary"
)

// RLEBomb returns a v3 body of one sample claiming the given record
// count, each of its eight columns a single RLE run of that length — a
// decompression bomb a few dozen bytes long. pad bytes of module name
// lengthen the header without adding column bytes.
func RLEBomb(records uint64, pad int) []byte {
	var buf bytes.Buffer
	writeU := func(v uint64) {
		var b [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	buf.WriteString("MGTR")
	writeU(3) // version
	writeU(uint64(pad))
	buf.Write(bytes.Repeat([]byte{'m'}, pad)) // module
	writeU(0)                                 // mode ""
	for range 7 {
		writeU(0) // metadata
	}
	writeU(1) // one procedure name...
	writeU(1)
	buf.WriteString("f") // ..."f"
	writeU(1)            // one sample...
	writeU(0)            // seq
	writeU(0)            // cpu
	writeU(0)            // trigger
	writeU(records)      // ...claiming this many records
	for range 8 {
		buf.WriteByte(1) // RLE
		writeU(0)
		writeU(records)
	}
	return buf.Bytes()
}
