// Package wire implements the framed binary message format every Chariots
// component speaks on the network: a length-prefixed frame carrying a
// request id (for pipelined request/response matching), a message type,
// and an opaque payload.
//
// Frame layout (little-endian):
//
//	u32 frameLen (bytes after this field) | u64 reqID | u8 msgType | payload
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize bounds a single frame to guard against corrupt length
// prefixes; batches larger than this must be split by the sender.
const MaxFrameSize = 64 << 20

const frameOverhead = 8 + 1 // reqID + msgType

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Frame is one decoded message.
type Frame struct {
	ReqID   uint64
	Type    uint8
	Payload []byte
}

// Append encodes the frame to dst and returns the extended slice.
func Append(dst []byte, reqID uint64, msgType uint8, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameOverhead+len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = append(dst, msgType)
	dst = append(dst, payload...)
	return dst
}

// maxPooledBuf bounds the capacity of buffers kept in the frame pool so a
// single jumbo frame cannot pin megabytes behind every pool slot.
const maxPooledBuf = 1 << 20

// bufPool recycles frame scratch buffers across Write calls (and any
// caller using GetBuf/PutBuf): frame encoding is the hottest allocation
// site in the system, one buffer per message in both directions.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a zero-length pooled scratch buffer. Callers hand it back
// with PutBuf once the bytes are no longer referenced.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer obtained from GetBuf to the pool. Oversized
// buffers are dropped so the pool's steady-state footprint stays small.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// WriteBuf encodes the frame into *scratch (reusing its capacity, growing
// it if needed) and writes it to w in one call. The caller retains
// ownership of the scratch buffer; Write uses this with pooled buffers.
func WriteBuf(w io.Writer, scratch *[]byte, reqID uint64, msgType uint8, payload []byte) error {
	if frameOverhead+len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	*scratch = Append((*scratch)[:0], reqID, msgType, payload)
	_, err := w.Write(*scratch)
	return err
}

// Write encodes and writes one frame to w using a pooled scratch buffer —
// zero allocations per frame in steady state.
func Write(w io.Writer, reqID uint64, msgType uint8, payload []byte) error {
	buf := GetBuf()
	err := WriteBuf(w, buf, reqID, msgType, payload)
	PutBuf(buf)
	return err
}

// readInto reads one frame body into scratch (grown as needed) and decodes
// it; the returned frame's payload aliases the scratch buffer.
func readInto(r io.Reader, scratch []byte) (Frame, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, scratch, err
	}
	frameLen := binary.LittleEndian.Uint32(lenBuf[:])
	if frameLen < frameOverhead {
		return Frame{}, scratch, fmt.Errorf("wire: frame length %d below minimum", frameLen)
	}
	if frameLen > MaxFrameSize {
		return Frame{}, scratch, ErrFrameTooLarge
	}
	if uint32(cap(scratch)) < frameLen {
		scratch = make([]byte, frameLen)
	}
	body := scratch[:frameLen]
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, scratch, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return Frame{
		ReqID:   binary.LittleEndian.Uint64(body),
		Type:    body[8],
		Payload: body[9:frameLen],
	}, scratch, nil
}

// Read reads one frame from r. The returned payload is freshly allocated
// and owned by the caller; connection loops that process one frame at a
// time should use Reader instead, which reuses one scratch buffer.
func Read(r io.Reader) (Frame, error) {
	f, _, err := readInto(r, nil)
	return f, err
}

// Reader reads frames from a stream reusing one grow-only scratch buffer:
// the allocation-free counterpart of Write's pooled path. Not safe for
// concurrent use; one Reader per connection.
type Reader struct {
	r       io.Reader
	scratch []byte
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, scratch: make([]byte, 0, 4096)}
}

// Next reads one frame. The returned Payload ALIASES the reader's scratch
// buffer and is valid only until the next call to Next; a consumer that
// retains it (or any sub-slice, including decoded zero-copy record views)
// past that point must copy first.
func (rd *Reader) Next() (Frame, error) {
	f, scratch, err := readInto(rd.r, rd.scratch)
	rd.scratch = scratch
	return f, err
}

// --- payload building and reading, shared by the message schemas ---

// AppendString appends a u16-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendBool appends b as one byte, 1 or 0.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ErrShort is the error of a Dec that was asked for more bytes than its
// payload holds.
var ErrShort = errors.New("wire: payload shorter than its fields")

// Dec is a read cursor over one payload, the one place payload bounds are
// checked. Its error is sticky: the first read past the end fails the
// cursor, every read after that returns a zero value, and the decoder
// looks at Err once, when it has read every field — so a message layout is
// written as the list of its fields and nothing else. Keep a Dec a local of
// the function that reads through it: handed through a func value it
// escapes to the heap (DESIGN.md §3.8).
type Dec struct {
	p   []byte
	err error
}

// NewDec returns a cursor at the start of p. What it returns aliases p
// only through Rest; strings are copies.
func NewDec(p []byte) Dec { return Dec{p: p} }

// take consumes the next n bytes; nil when they are not all there (and,
// the payload gone with the first failure, on every call after that).
func (d *Dec) take(n int) []byte {
	if n < 0 || len(d.p) < n {
		d.err, d.p = ErrShort, nil
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

// zeros is what a failed cursor's fixed-width reads decode.
var zeros [8]byte

// fixed is take for the fixed-width readers: n ≥ 1 bytes, zeros on failure.
func (d *Dec) fixed(n int) []byte {
	if b := d.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8, U16, U32 and U64 read a little-endian unsigned integer.
func (d *Dec) U8() uint8   { return d.fixed(1)[0] }
func (d *Dec) U16() uint16 { return binary.LittleEndian.Uint16(d.fixed(2)) }
func (d *Dec) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *Dec) U64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

// Bool reads a byte written by AppendBool.
func (d *Dec) Bool() bool { return d.U8() == 1 }

// Str reads a string written by AppendString.
func (d *Dec) Str() string { return string(d.take(int(d.U16()))) }

// Count reads a u32 element count and fails the cursor unless the bytes
// that remain can hold that many elements of at least minElem bytes each,
// so what a decoder allocates is bounded by the payload it was sent, never
// by the count the payload claims.
func (d *Dec) Count(minElem int) int { return d.fits(int(d.U32()), minElem) }

// Count16 is Count for a u16 count.
func (d *Dec) Count16(minElem int) int { return d.fits(int(d.U16()), minElem) }

func (d *Dec) fits(n, minElem int) int {
	if n > len(d.p)/minElem {
		d.err, d.p = ErrShort, nil
		return 0
	}
	return n
}

// Rest returns the unread bytes without consuming them (nil once the
// cursor has failed): the way into a decoder that does its own framing,
// such as the record batch codec. Skip then steps over what it consumed.
func (d *Dec) Rest() []byte { return d.p }

// Skip consumes n bytes.
func (d *Dec) Skip(n int) { d.take(n) }

// Err returns ErrShort if any read ran past the end of the payload.
func (d *Dec) Err() error { return d.err }
