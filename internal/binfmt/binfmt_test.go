package binfmt

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestReaderRoundTrip reads back every field kind the writers produce.
func TestReaderRoundTrip(t *testing.T) {
	b := []byte{7}
	b = Append24(b, 0xABCDEF)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.AppendUvarint(b, 1<<40)
	b = AppendStr(b, "name")
	b = AppendStr(b, strings.Repeat("x", 0x10000)) // truncated to 0xFFFF
	b = append(b, 1, 2, 3)

	r := NewReader(b, "test")
	if v := r.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if v := r.U24(); v != 0xABCDEF {
		t.Errorf("U24 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Str(); v != "name" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Str(); len(v) != 0xFFFF {
		t.Errorf("long Str has %d bytes", len(v))
	}
	if n := r.Count(3, 1, "byte count"); n != 3 || string(r.Bytes(n)) != "\x01\x02\x03" {
		t.Errorf("Count/Bytes = %d", n)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFailuresAreSticky: after the first failure every read yields
// zero, and Done reports that first failure rather than a later one.
func TestReaderFailuresAreSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5}, "test")
	if n := r.Count(2, 4, "word count"); n != 0 {
		t.Fatalf("Count of 2 words in 5 bytes = %d", n)
	}
	if r.U32() != 0 || r.Byte() != 0 || r.Bytes(0) != nil {
		t.Error("read after failure returned data")
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "test: declared word count 2") {
		t.Errorf("Done = %v", err)
	}

	r = NewReader([]byte{1, 2, 3}, "test")
	r.U24()
	if r.Done() != nil {
		t.Error("exactly consumed input rejected")
	}
	r = NewReader([]byte{1, 2, 3}, "test")
	r.Byte()
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Errorf("Done with bytes left = %v", err)
	}
	r = NewReader([]byte{0x80}, "test")
	if r.Uvarint() != 0 || r.Err() == nil {
		t.Error("truncated uvarint accepted")
	}
}
