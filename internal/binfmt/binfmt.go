// Package binfmt is the one bounds-checked reader behind every container
// format the toolchain decodes: images (EMX1), objects (EMO1), squash
// metadata (SQM1), prep-cache payloads (EMC1), profiles (EMP1), and the
// Huffman, split-stream and LZ coder tables. These bytes arrive from files
// and from sockets, so a declared count is checked against the bytes left
// before anything is sized by it (Count), and an input must be consumed
// exactly (Done).
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Reader decodes little-endian fields from a byte slice. The first failure
// is sticky: every later read returns a zero value, Count returns 0 (so
// loops over a count stop), and Err and Done report that first failure.
type Reader struct {
	data   []byte
	pos    int
	err    error
	format string // error prefix, e.g. "objfile"
}

// NewReader reads data; format prefixes its error messages. It returns a
// value so that a decoder's reader can live on its stack.
func NewReader(data []byte, format string) Reader {
	return Reader{data: data, format: format}
}

// errShort marks a read past the end until Err formats it with the
// position, so the read paths stay free of calls and inline.
var errShort = errors.New("short")

// Err reports the first failure, if any.
func (r *Reader) Err() error {
	if r.err == errShort {
		r.err = fmt.Errorf("%s: truncated at byte %d", r.format, r.pos)
	}
	return r.err
}

// Done reports the first failure, or an error if any bytes are left.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.data) {
		r.failf("%d trailing bytes", len(r.data)-r.pos)
	}
	return r.Err()
}

// Fail records err, from a nested decoder of a field r has read, unless an
// earlier failure is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.format+": "+format, args...)
	}
}

// take returns the next n bytes, or nil after recording a failure.
func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.data)-r.pos {
		if r.err == nil {
			r.err = errShort
		}
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U24 reads a 3-byte unsigned integer.
func (r *Reader) U24() int {
	if b := r.take(3); b != nil {
		return int(b[0]) | int(b[1])<<8 | int(b[2])<<16
	}
	return 0
}

// U32 reads a 4-byte unsigned integer.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uvarint reads an unsigned varint as written by binary.AppendUvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = errShort
		return 0
	}
	r.pos += n
	return v
}

// Str reads a string with a u16 length prefix, as written by AppendStr.
func (r *Reader) Str() string {
	var n int
	if b := r.take(2); b != nil {
		n = int(binary.LittleEndian.Uint16(b))
	}
	return string(r.take(n))
}

// Bytes returns the next n bytes as a subslice of the input (callers that
// keep them past the input's lifetime copy them), or nil on failure.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Count validates a declared element count before the caller allocates
// for it: each element's encoding takes at least minElemBytes (>= 1), so a
// count the remaining bytes cannot hold is an error, never an allocation.
// It returns 0 on failure; what names the count in the error.
func (r *Reader) Count(n uint64, minElemBytes int, what string) int {
	if r.err != nil {
		return 0
	}
	if left := len(r.data) - r.pos; n > uint64(left/minElemBytes) {
		r.failf("declared %s %d exceeds the %d bytes left", what, n, left)
		return 0
	}
	return int(n)
}

// Append24 appends n as the 3-byte integer U24 reads.
func Append24(b []byte, n int) []byte {
	return append(b, byte(n), byte(n>>8), byte(n>>16))
}

// AppendStr appends s, truncated to 0xFFFF bytes, with the u16 length
// prefix Str reads.
func AppendStr(b []byte, s string) []byte {
	s = s[:min(len(s), 0xFFFF)]
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}
