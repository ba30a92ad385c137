package objfile_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// hugeCountImage is a short image whose text and data are empty and that
// declares 2³²−1 symbols, or (with hugeRelocs) no symbols and 2³²−1
// relocations, followed by a few bytes.
func hugeCountImage(hugeRelocs bool) []byte {
	le := binary.LittleEndian
	b := []byte("EMX1")
	b = le.AppendUint32(b, 0) // entry
	b = le.AppendUint32(b, 0) // text words
	b = le.AppendUint32(b, 0) // data bytes
	if hugeRelocs {
		b = le.AppendUint32(b, 0)
	}
	b = le.AppendUint32(b, 0xFFFFFFFF)
	return append(b, make([]byte, 16)...)
}

// TestReadImageRejectsHugeCounts: a declared symbol or relocation count
// that the remaining bytes cannot hold is an error, not an allocation
// sized by the count (which at 2³²−1 entries is a fatal out-of-memory).
func TestReadImageRejectsHugeCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		relocs bool
	}{{"symbol", false}, {"relocation", true}} {
		_, err := objfile.ReadImage(bytes.NewReader(hugeCountImage(tc.relocs)))
		if err == nil || !strings.Contains(err.Error(), tc.name+" count") {
			t.Errorf("%d %ss declared: err = %v", uint32(0xFFFFFFFF), tc.name, err)
		}
	}
}

// FuzzReadImage feeds arbitrary bytes to ReadImage, seeded with a linked
// and a squashed image: it must never panic or over-allocate, and any
// input it accepts must serialize back to the same bytes.
func FuzzReadImage(f *testing.F) {
	obj, err := asm.Assemble(testprog.Random(1))
	if err != nil {
		f.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		f.Fatal(err)
	}
	m := vm.New(im, []byte("profile input"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		f.Fatal(err)
	}
	out, err := core.Squash(obj, m.ProfileCounts(), core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []*objfile.Image{im, out.Image} {
		var buf bytes.Buffer
		if _, err := seed.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hugeCountImage(false))
	f.Add(hugeCountImage(true))

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := objfile.ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := im.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of accepted image failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted image does not round-trip: %d bytes in, %d out", len(data), buf.Len())
		}
	})
}

// FuzzReadObject feeds arbitrary bytes to ReadObject, seeded with an
// assembled object and one declaring 2³²−1 symbols: it must never panic or
// over-allocate, and any input it accepts must serialize back to the same
// bytes.
func FuzzReadObject(f *testing.F) {
	obj, err := asm.Assemble(testprog.Random(1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := obj.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(append([]byte("EMO1"), hugeCountImage(false)[8:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := objfile.ReadObject(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := o.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of accepted object failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted object does not round-trip: %d bytes in, %d out", len(data), buf.Len())
		}
	})
}
