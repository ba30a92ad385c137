// Package core implements squash, the paper's profile-guided code
// compressor (Debray & Evans, PLDI 2002): a binary rewriter that replaces
// infrequently executed code regions with entry stubs and a compressed
// representation, decompressed on demand at run time into a small fixed
// buffer, plus the runtime machinery (decompressor dispatch, dynamically
// created reference-counted restore stubs) that makes function calls out of
// the buffer work.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/lzcomp"
	"repro/internal/streamcomp"
)

// DecompWords is the reserved size of the in-image decompressor, in words.
// The first NumEntryRegs words are the per-register entry points (§2.3: one
// entry point per possible return-address register); the rest stands in for
// the decompressor body and its CreateStub logic. 600 words ≈ 2.4 KB is a
// realistic size for a canonical-Huffman split-stream decoder with the
// paper's decoder loop; it is charged in full against the squashed
// program's footprint.
const DecompWords = 600

// NumEntryRegs is the number of decompressor entry points (one per
// general-purpose register that could hold the return address).
const NumEntryRegs = 32

// StubSlotWords is the size of one dynamically created restore stub:
// the call to the decompressor, the tag word, and the usage count (the
// paper's "additional 8 bytes per stub in order to maintain the count",
// rounded up to a word-aligned slot).
const StubSlotWords = 4

// Region coder identifiers, stored in the metadata so the runtime knows how
// to decode the blob. The zero value is the paper's split-stream coder, so
// images written before the field existed decode unchanged.
const (
	// CoderStream is the paper's split-stream canonical-Huffman coder (§3).
	CoderStream = 0
	// CoderLZ is the LZ-style dictionary coder (§8/[19] alternative).
	CoderLZ = 1
)

// RegionCoder is what the runtime needs from a region decompressor: decode
// one region's instructions from the blob, and switch between the
// table-driven and reference bit-at-a-time Huffman decoders. Both coders
// satisfy it; both guarantee the two decoders consume identical bits.
// DecodeStats exposes the coder's decode-path telemetry (host-side only,
// never part of the simulated state).
type RegionCoder interface {
	Decompress(blob []byte, bitOff int, emit func(isa.Inst) error) (int, error)
	SetSlowDecode(v bool)
	DecodeStats() huffman.DecodeStats
}

// Meta is the squash runtime description stored alongside the image. In
// the paper's artifact this state is the decompressor's private data inside
// the binary; its size is charged to the footprint via the offset table and
// code tables entries of the accounting, not via this encoding.
type Meta struct {
	DecompAddr   uint32 // base of the reserved decompressor region
	StubAreaAddr uint32 // base of the restore-stub area
	StubCapacity int    // number of StubSlotWords slots
	RtBufAddr    uint32 // base of the runtime buffer
	K            int    // runtime buffer size in bytes
	// Interpret selects the §8 alternative runtime: compressed regions are
	// interpreted in place instead of decompressed into the buffer.
	Interpret bool
	// Coder identifies the region coder that produced Blob/Tables
	// (CoderStream or CoderLZ). It shares the Interpret flags word in the
	// serialized form: bit 0 is the interpret flag, bits 8+ the coder.
	Coder int

	// OffsetTable maps region index to the bit offset of its compressed
	// code within Blob (the paper's function offset table).
	OffsetTable []uint32
	// Blob is the merged compressed code of all regions.
	Blob []byte
	// Tables is the serialized split-stream compressor (N/D arrays per
	// stream, plus MTF alphabets when enabled).
	Tables []byte
}

// Compressor deserializes the coder tables for whichever region coder the
// image was squashed with.
func (m *Meta) Compressor() (RegionCoder, error) {
	switch m.Coder {
	case CoderStream:
		var c streamcomp.Compressor
		if err := c.UnmarshalBinary(m.Tables); err != nil {
			return nil, fmt.Errorf("core: bad compressor tables: %w", err)
		}
		return &c, nil
	case CoderLZ:
		var c lzcomp.Compressor
		if err := c.UnmarshalBinary(m.Tables); err != nil {
			return nil, fmt.Errorf("core: bad compressor tables: %w", err)
		}
		return &c, nil
	default:
		return nil, fmt.Errorf("core: unknown region coder %d", m.Coder)
	}
}

// MarshalBinary encodes the metadata:
//
//	magic "SQM1" | decomp u32 | stub area u32 | stub capacity u32
//	| runtime buffer u32 | K u32 | flags u32
//	| offset table: count u32, u32... | blob: size u32, bytes...
//	| tables: size u32, bytes...
func (m *Meta) MarshalBinary() ([]byte, error) {
	flags := uint32(m.Coder) << 8
	if m.Interpret {
		flags |= 1
	}
	le := binary.LittleEndian
	out := []byte("SQM1")
	for _, v := range []uint32{m.DecompAddr, m.StubAreaAddr, uint32(m.StubCapacity), m.RtBufAddr, uint32(m.K), flags, uint32(len(m.OffsetTable))} {
		out = le.AppendUint32(out, v)
	}
	for _, v := range m.OffsetTable {
		out = le.AppendUint32(out, v)
	}
	out = append(le.AppendUint32(out, uint32(len(m.Blob))), m.Blob...)
	out = append(le.AppendUint32(out, uint32(len(m.Tables))), m.Tables...)
	return out, nil
}

// UnmarshalMeta decodes metadata written by MarshalBinary.
func UnmarshalMeta(data []byte) (*Meta, error) {
	r := binfmt.NewReader(data, "core: metadata")
	if string(r.Bytes(4)) != "SQM1" {
		return nil, fmt.Errorf("core: bad metadata magic")
	}
	m := &Meta{
		DecompAddr:   r.U32(),
		StubAreaAddr: r.U32(),
		StubCapacity: int(r.U32()),
		RtBufAddr:    r.U32(),
		K:            int(r.U32()),
	}
	flags := r.U32()
	if flags&0xFE != 0 {
		return nil, fmt.Errorf("core: unknown metadata flags %#x", flags&0xFF)
	}
	m.Interpret = flags&1 == 1
	m.Coder = int(flags >> 8)
	m.OffsetTable = make([]uint32, r.Count(uint64(r.U32()), 4, "offset table size"))
	for i := range m.OffsetTable {
		m.OffsetTable[i] = r.U32()
	}
	m.Blob = append([]byte(nil), r.Bytes(int(r.U32()))...)
	m.Tables = append([]byte(nil), r.Bytes(int(r.U32()))...)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
