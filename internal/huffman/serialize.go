package huffman

import (
	"encoding/binary"
	"fmt"

	"repro/internal/binfmt"
)

// The compressed program stores, for each stream, the "code representation
// (the array N[i]) and value list (the array D[j])" (paper, §3). This file
// gives those arrays a compact byte encoding so that their space cost is
// charged against the compressed program size exactly as in the paper.

// MarshalBinary encodes the code tables as:
//
//	uvarint maxLen
//	uvarint N[1] .. N[maxLen]
//	uvarint delta-encoded D values per length class (ascending within class)
func (c *Code) MarshalBinary() ([]byte, error) {
	buf := binary.AppendUvarint(nil, uint64(c.MaxLen()))
	for i := 1; i <= c.MaxLen(); i++ {
		buf = binary.AppendUvarint(buf, uint64(c.N[i]))
	}
	j := 0
	for i := 1; i <= c.MaxLen(); i++ {
		prev := uint64(0)
		for k := 0; k < c.N[i]; k++ {
			v := uint64(c.D[j])
			var delta uint64
			if k == 0 {
				delta = v
			} else {
				delta = v - prev // ascending within a length class
			}
			buf = binary.AppendUvarint(buf, delta)
			prev = v
			j++
		}
	}
	if j != len(c.D) {
		return nil, fmt.Errorf("huffman: N sums to %d codewords but D has %d values", j, len(c.D))
	}
	return buf, nil
}

// UnmarshalBinary decodes tables produced by MarshalBinary.
func (c *Code) UnmarshalBinary(data []byte) error {
	r := binfmt.NewReader(data, "huffman: code table")
	maxLen := r.Uvarint()
	if maxLen > MaxCodeLen {
		return fmt.Errorf("huffman: declared max codeword length %d exceeds limit %d", maxLen, MaxCodeLen)
	}
	// Each N[i] and each D value takes at least one uvarint byte.
	c.N = make([]int, 1+r.Count(maxLen, 1, "max codeword length"))
	total := uint64(0)
	for i := 1; i < len(c.N); i++ {
		c.N[i] = r.Count(r.Uvarint(), 1, "codeword count")
		total += uint64(c.N[i])
	}
	c.D = make([]uint32, 0, r.Count(total, 1, "codeword count"))
	for _, n := range c.N {
		var v uint64
		for k := 0; k < n; k++ {
			if k == 0 {
				v = r.Uvarint()
			} else {
				v += r.Uvarint() // ascending within a length class
			}
			if v > 1<<32-1 {
				return fmt.Errorf("huffman: value %d exceeds 32 bits", v)
			}
			c.D = append(c.D, uint32(v))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	c.enc = nil
	c.dec = nil
	return nil
}

// AppendFramed appends c's tables with the u24 length prefix the
// split-stream and LZ coders store them under.
func (c *Code) AppendFramed(b []byte) ([]byte, error) {
	blob, err := c.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if len(blob) > 0xFFFFFF {
		return nil, fmt.Errorf("huffman: code table too large")
	}
	return append(binfmt.Append24(b, len(blob)), blob...), nil
}

// ReadFramed reads a code written by AppendFramed. A failure is recorded
// in r.
func ReadFramed(r *binfmt.Reader) *Code {
	c := &Code{}
	if blob := r.Bytes(r.U24()); r.Err() == nil {
		r.Fail(c.UnmarshalBinary(blob))
	}
	return c
}

// TableSize reports the serialized size in bytes of the code's N and D
// arrays — the per-stream table overhead counted against compression.
func (c *Code) TableSize() int {
	b, err := c.MarshalBinary()
	if err != nil {
		return 0
	}
	return len(b)
}
