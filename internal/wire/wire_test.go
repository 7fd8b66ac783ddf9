package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := Write(&buf, 42, 7, payload); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.ReqID != 42 || f.Type != 7 || !bytes.Equal(f.Payload, payload) {
		t.Errorf("frame = %+v", f)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 1, 2, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.ReqID != 1 || f.Type != 2 || len(f.Payload) != 0 {
		t.Errorf("frame = %+v", f)
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		Write(&buf, i, uint8(i), []byte{byte(i)})
	}
	for i := uint64(0); i < 10; i++ {
		f, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.ReqID != i || f.Type != uint8(i) || f.Payload[0] != byte(i) {
			t.Errorf("frame %d = %+v", i, f)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Errorf("Read at end = %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	huge := make([]byte, MaxFrameSize)
	if err := Write(io.Discard, 0, 0, huge); err != ErrFrameTooLarge {
		t.Errorf("Write oversized = %v, want ErrFrameTooLarge", err)
	}
	// Reader side: corrupt length prefix claiming a huge frame.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Read(&buf); err != ErrFrameTooLarge {
		t.Errorf("Read oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameBelowMinimum(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{3, 0, 0, 0, 1, 2, 3})
	if _, err := Read(&buf); err == nil {
		t.Error("accepted frame shorter than header")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var full bytes.Buffer
	Write(&full, 9, 9, []byte("payload"))
	data := full.Bytes()
	r := bytes.NewReader(data[:len(data)-3])
	if _, err := Read(r); err == nil {
		t.Error("accepted truncated frame body")
	}
}

func TestStringHelpers(t *testing.T) {
	buf := AppendString(nil, "chariots")
	d := NewDec(buf)
	if s := d.Str(); d.Err() != nil || s != "chariots" || len(d.Rest()) != 0 {
		t.Errorf("Str = %q, %v, %d bytes left", s, d.Err(), len(d.Rest()))
	}
	for _, n := range []int{1, 4} { // truncated header, truncated body
		d := NewDec(buf[:n])
		if s := d.Str(); d.Err() == nil || s != "" {
			t.Errorf("Str of %d of %d bytes = %q, %v", n, len(buf), s, d.Err())
		}
	}
	long := strings.Repeat("x", 1000)
	d = NewDec(AppendString(nil, long))
	if s := d.Str(); d.Err() != nil || s != long {
		t.Error("long string round trip failed")
	}
}

// TestDec reads one of everything back in order, then checks that the
// error is sticky: after the first read past the end every read is zero,
// Rest is empty and Err stays set.
func TestDec(t *testing.T) {
	buf := []byte{7}
	buf = binary.LittleEndian.AppendUint16(buf, 0x1234)
	buf = binary.LittleEndian.AppendUint32(buf, 0x89abcdef)
	buf = binary.LittleEndian.AppendUint64(buf, 1<<63|5)
	buf = AppendBool(AppendBool(buf, true), false)
	buf = AppendString(buf, "k")
	buf = binary.LittleEndian.AppendUint32(buf, 2) // a count of two 3-byte elements
	buf = append(buf, "abcdef"...)
	d := NewDec(buf)
	if d.U8() != 7 || d.U16() != 0x1234 || d.U32() != 0x89abcdef || d.U64() != 1<<63|5 ||
		!d.Bool() || d.Bool() || d.Str() != "k" || d.Count(3) != 2 {
		t.Fatal("fields read back wrong")
	}
	if string(d.Rest()) != "abcdef" {
		t.Fatalf("Rest = %q", d.Rest())
	}
	d.Skip(4)
	if string(d.Rest()) != "ef" || d.Err() != nil {
		t.Fatalf("after Skip: Rest %q, Err %v", d.Rest(), d.Err())
	}
	if d.U32() != 0 || d.Err() != ErrShort {
		t.Fatalf("read past the end: Err %v", d.Err())
	}
	if d.U8() != 0 || d.Str() != "" || d.Count(1) != 0 || d.Rest() != nil || d.Err() != ErrShort {
		t.Fatal("a failed cursor kept reading")
	}

	// A count the remaining bytes cannot hold fails before anyone sizes an
	// allocation by it, for both count widths.
	d = NewDec(append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 64)...))
	if n := d.Count(8); n != 0 || d.Err() != ErrShort {
		t.Fatalf("inflated u32 count: %d, %v", n, d.Err())
	}
	d = NewDec([]byte{3, 0, 1, 2})
	if n := d.Count16(1); n != 0 || d.Err() != ErrShort {
		t.Fatalf("inflated u16 count: %d, %v", n, d.Err())
	}
	d = NewDec([]byte{2, 0, 1, 2})
	if n := d.Count16(1); n != 2 || d.Err() != nil {
		t.Fatalf("exact u16 count: %d, %v", n, d.Err())
	}
}

func TestReaderSequenceReusesScratch(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("first frame payload"),
		[]byte("2nd"),
		bytes.Repeat([]byte{0xAB}, 8192), // forces scratch growth
		nil,
	}
	for i, p := range payloads {
		if err := Write(&buf, uint64(i), uint8(i), p); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	for i, p := range payloads {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ReqID != uint64(i) || f.Type != uint8(i) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("Next at end = %v, want EOF", err)
	}
}

func TestReaderPayloadInvalidatedByNext(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, 1, 1, []byte("AAAA"))
	Write(&buf, 2, 2, []byte("BBBB"))
	rd := NewReader(&buf)
	f1, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := f1.Payload
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	// The documented contract: the first payload aliases the reader's
	// scratch, so after the next call it holds the second frame's bytes.
	if string(first) != "BBBB" {
		t.Fatalf("scratch not reused: first payload now %q", first)
	}
}

func TestReaderErrors(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}))
	if _, err := rd.Next(); err != ErrFrameTooLarge {
		t.Fatalf("Next oversized = %v, want ErrFrameTooLarge", err)
	}
	rd = NewReader(bytes.NewReader([]byte{3, 0, 0, 0, 1, 2, 3}))
	if _, err := rd.Next(); err == nil {
		t.Fatal("accepted frame below minimum")
	}
}

func TestWriteBufReuse(t *testing.T) {
	var buf bytes.Buffer
	scratch := make([]byte, 0, 8)
	if err := WriteBuf(&buf, &scratch, 7, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	grown := cap(scratch)
	if err := WriteBuf(&buf, &scratch, 8, 3, []byte("pay")); err != nil {
		t.Fatal(err)
	}
	if cap(scratch) != grown {
		t.Fatal("WriteBuf reallocated a sufficient scratch buffer")
	}
	for i, want := range []struct {
		id uint64
		p  string
	}{{7, "payload"}, {8, "pay"}} {
		f, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ReqID != want.id || string(f.Payload) != want.p {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
}

func TestWriteSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 256)
	// Warm the pool, then require the pooled write path to be
	// allocation-free.
	Write(io.Discard, 0, 0, payload)
	allocs := testing.AllocsPerRun(200, func() {
		if err := Write(io.Discard, 1, 2, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Write allocates %.1f/op, want 0", allocs)
	}
}
