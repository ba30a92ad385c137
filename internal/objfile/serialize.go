package objfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/binfmt"
	"repro/internal/isa"
)

// On-disk formats. A linked image and a relocatable object share one
// section layout; the image adds its entry point in front and its metadata
// behind:
//
//	image:  magic "EMX1" | entry u32 | sections | meta: size u32, bytes...
//	object: magic "EMO1" | sections
//
//	sections:
//	  text:    count u32, words...
//	  data:    count u32, bytes...
//	  symbols: count u32, { name, section u8, offset u32, kind u8 }...
//	  relocs:  count u32, { section u8, offset u32, kind u8, sym, addend i32 }...
//
// Strings are u16 length-prefixed. All integers are little-endian.

const (
	imageMagic  = "EMX1"
	objectMagic = "EMO1"
)

// The smallest encodings of a symbol and a relocation (empty names). A
// reader bounds each declared count by the bytes left divided by these
// before allocating for it.
const (
	minSymbolBytes = 2 + 1 + 4 + 1
	minRelocBytes  = 1 + 4 + 1 + 2 + 4
)

// sectionsSize reports the exact byte length appendSections produces.
func sectionsSize(text []uint32, data []byte, syms []Symbol, relocs []Reloc) int {
	n := 4 + 4*len(text) + 4 + len(data) + 4 + 4 // counts, text, data
	for _, s := range syms {
		n += minSymbolBytes + min(len(s.Name), 0xFFFF)
	}
	for _, r := range relocs {
		n += minRelocBytes + min(len(r.Sym), 0xFFFF)
	}
	return n
}

func appendSections(b []byte, text []uint32, data []byte, syms []Symbol, relocs []Reloc) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(text)))
	for _, w := range text {
		b = le.AppendUint32(b, w)
	}
	b = le.AppendUint32(b, uint32(len(data)))
	b = append(b, data...)
	b = le.AppendUint32(b, uint32(len(syms)))
	for _, s := range syms {
		b = binfmt.AppendStr(b, s.Name)
		b = append(b, byte(s.Section))
		b = le.AppendUint32(b, s.Offset)
		b = append(b, byte(s.Kind))
	}
	b = le.AppendUint32(b, uint32(len(relocs)))
	for _, r := range relocs {
		b = append(b, byte(r.Section))
		b = le.AppendUint32(b, r.Offset)
		b = append(b, byte(r.Kind))
		b = binfmt.AppendStr(b, r.Sym)
		b = le.AppendUint32(b, uint32(r.Addend))
	}
	return b
}

func readSections(r *binfmt.Reader) (text []uint32, data []byte, syms []Symbol, relocs []Reloc) {
	text = make([]uint32, r.Count(uint64(r.U32()), isa.WordSize, "text size"))
	for i := range text {
		text[i] = r.U32()
	}
	data = append([]byte(nil), r.Bytes(int(r.U32()))...)
	syms = make([]Symbol, r.Count(uint64(r.U32()), minSymbolBytes, "symbol count"))
	for i := range syms {
		syms[i] = Symbol{Name: r.Str(), Section: Section(r.Byte()), Offset: r.U32(), Kind: SymKind(r.Byte())}
	}
	relocs = make([]Reloc, r.Count(uint64(r.U32()), minRelocBytes, "relocation count"))
	for i := range relocs {
		relocs[i] = Reloc{Section: Section(r.Byte()), Offset: r.U32(), Kind: RelocKind(r.Byte()), Sym: r.Str(), Addend: int32(r.U32())}
	}
	return text, data, syms, relocs
}

// writeTo hands w the size-byte encoding that appendTo produces. A
// *bytes.Buffer destination is appended to in place after one exact Grow
// (the daemon's pooled request scratch takes this path, making a warm
// serialization allocation-free); any other writer receives the whole
// encoding in a single Write.
func writeTo(w io.Writer, size int, appendTo func([]byte) []byte) (int64, error) {
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(size)
		n, _ := buf.Write(appendTo(buf.AvailableBuffer()))
		return int64(n), nil
	}
	n, err := w.Write(appendTo(make([]byte, 0, size)))
	return int64(n), err
}

// WriteTo serializes the image.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	size := len(imageMagic) + 4 + sectionsSize(im.Text, im.Data, im.Symbols, im.Relocs) + 4 + len(im.Meta)
	return writeTo(w, size, im.appendTo)
}

func (im *Image) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(append(b, imageMagic...), im.Entry)
	b = appendSections(b, im.Text, im.Data, im.Symbols, im.Relocs)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(im.Meta)))
	return append(b, im.Meta...)
}

// WriteTo serializes the object.
func (o *Object) WriteTo(w io.Writer) (int64, error) {
	return writeTo(w, len(objectMagic)+sectionsSize(o.Text, o.Data, o.Symbols, o.Relocs), o.appendTo)
}

func (o *Object) appendTo(b []byte) []byte {
	return appendSections(append(b, objectMagic...), o.Text, o.Data, o.Symbols, o.Relocs)
}

// readMagic reads all of src and checks that it starts with magic.
func readMagic(src io.Reader, magic, what string) (binfmt.Reader, error) {
	data, err := io.ReadAll(src)
	if err != nil {
		return binfmt.Reader{}, err
	}
	r := binfmt.NewReader(data, "objfile")
	if string(r.Bytes(len(magic))) != magic {
		return r, fmt.Errorf("objfile: bad magic; not an EM32 %s", what)
	}
	return r, nil
}

// ReadImage deserializes an image written by Image.WriteTo.
func ReadImage(src io.Reader) (*Image, error) {
	r, err := readMagic(src, imageMagic, "image")
	if err != nil {
		return nil, err
	}
	im := &Image{Entry: r.U32()}
	im.Text, im.Data, im.Symbols, im.Relocs = readSections(&r)
	if meta := r.Bytes(int(r.U32())); len(meta) > 0 {
		im.Meta = append([]byte(nil), meta...)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return im, nil
}

// ReadObject deserializes an object written by Object.WriteTo.
func ReadObject(src io.Reader) (*Object, error) {
	r, err := readMagic(src, objectMagic, "object")
	if err != nil {
		return nil, err
	}
	o := &Object{}
	o.Text, o.Data, o.Symbols, o.Relocs = readSections(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return o, nil
}
