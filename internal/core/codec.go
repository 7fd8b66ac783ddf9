package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary record encoding. Records cross machine boundaries at every
// pipeline stage, so the codec is a hand-rolled little-endian format rather
// than reflection-based encoding: append-path cost is dominated by this
// marshal/unmarshal pair.
//
// Layout (all integers little-endian):
//
//	u64 LId | u64 TOId | u16 Host |
//	u16 nDeps  { u16 DC, u64 TOId }*
//	u16 nTags  { u16 lenKey, key, u32 lenVal, val }*
//	u32 lenBody, body

const recordHeaderSize = 8 + 8 + 2 + 2 // through nDeps

// minEncodedRecordSize is the smallest possible record encoding (empty
// deps, tags, and body); batch count prefixes are sanity-checked against
// it so a corrupt count cannot drive a giant preallocation.
const minEncodedRecordSize = recordHeaderSize + 2 + 4

var errShortBuffer = errors.New("core: short buffer decoding record")

// ErrUnencodable is returned for a record with a part longer than the
// length field that has to describe it.
var ErrUnencodable = errors.New("core: record does not fit its encoding")

// maxU16Len is the largest length or count a u16 field describes.
const maxU16Len = 1<<16 - 1

// CheckEncodable reports whether every record can be written and read back:
// at most 65,535 deps and 65,535 tags, tag keys and values of at most
// 65,535 bytes (the record codec gives a value a u32, but a posting carries
// it to the indexers behind a u16), and a body a u32 can size. The encoders
// do not check — they would write the length truncated and then every byte
// — so this runs where records enter, before a log position is spent on
// one: once stored, such a record is read back as corruption.
func CheckEncodable(recs []*Record) error {
	for _, r := range recs {
		if len(r.Deps) > maxU16Len || len(r.Tags) > maxU16Len {
			return fmt.Errorf("%w: %d deps, %d tags (limit %d each)", ErrUnencodable, len(r.Deps), len(r.Tags), maxU16Len)
		}
		for _, t := range r.Tags {
			if len(t.Key) > maxU16Len || len(t.Value) > maxU16Len {
				return fmt.Errorf("%w: tag with a %d-byte key and a %d-byte value (limit %d each)", ErrUnencodable, len(t.Key), len(t.Value), maxU16Len)
			}
		}
		if uint64(len(r.Body)) > 1<<32-1 {
			return fmt.Errorf("%w: %d-byte body", ErrUnencodable, len(r.Body))
		}
	}
	return nil
}

// EncodedSize returns the exact number of bytes MarshalRecord will produce.
func EncodedSize(r *Record) int {
	n := recordHeaderSize + len(r.Deps)*10 + 2
	for _, t := range r.Tags {
		n += 2 + len(t.Key) + 4 + len(t.Value)
	}
	n += 4 + len(r.Body)
	return n
}

// AppendRecord appends the binary encoding of r to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.LId)
	dst = binary.LittleEndian.AppendUint64(dst, r.TOId)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Host))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Deps)))
	for _, d := range r.Deps {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(d.DC))
		dst = binary.LittleEndian.AppendUint64(dst, d.TOId)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Tags)))
	for _, t := range r.Tags {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t.Key)))
		dst = append(dst, t.Key...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Value)))
		dst = append(dst, t.Value...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Body)))
	dst = append(dst, r.Body...)
	return dst
}

// MarshalRecord returns the binary encoding of r in a freshly allocated
// buffer sized exactly.
func MarshalRecord(r *Record) []byte {
	return AppendRecord(make([]byte, 0, EncodedSize(r)), r)
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed. The returned record's Tags,
// Deps and Body are copies; it does not alias buf.
func DecodeRecord(buf []byte) (*Record, int, error) {
	r := &Record{}
	used, err := decodeRecordInto(r, buf, true)
	if err != nil {
		return nil, 0, err
	}
	return r, used, nil
}

// DecodeRecordView decodes one record from the front of buf into *r,
// reusing r's Deps and Tags capacity across calls. The decoded Body
// ALIASES buf: the view is valid only while buf is, and a component that
// retains the record past that point must Clone it first (see the
// ownership rules in DESIGN.md "Hot path & memory discipline"). Tag
// strings are copies (Go strings are immutable), so only Body aliases.
func DecodeRecordView(r *Record, buf []byte) (int, error) {
	return decodeRecordInto(r, buf, false)
}

// decodeRecordInto is the single decode implementation: it fills *r,
// reusing Deps/Tags capacity, copying the body iff copyBody.
func decodeRecordInto(r *Record, buf []byte, copyBody bool) (int, error) {
	if len(buf) < recordHeaderSize {
		return 0, errShortBuffer
	}
	r.LId = binary.LittleEndian.Uint64(buf[0:])
	r.TOId = binary.LittleEndian.Uint64(buf[8:])
	r.Host = DCID(binary.LittleEndian.Uint16(buf[16:]))
	nDeps := int(binary.LittleEndian.Uint16(buf[18:]))
	off := recordHeaderSize
	r.Deps = r.Deps[:0]
	if nDeps > 0 {
		if len(buf) < off+nDeps*10 {
			return 0, errShortBuffer
		}
		if cap(r.Deps) < nDeps {
			r.Deps = make([]Dep, 0, nDeps)
		}
		for i := 0; i < nDeps; i++ {
			r.Deps = append(r.Deps, Dep{
				DC:   DCID(binary.LittleEndian.Uint16(buf[off:])),
				TOId: binary.LittleEndian.Uint64(buf[off+2:]),
			})
			off += 10
		}
	} else if cap(r.Deps) == 0 {
		r.Deps = nil
	}
	if len(buf) < off+2 {
		return 0, errShortBuffer
	}
	nTags := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	r.Tags = r.Tags[:0]
	if nTags > 0 {
		// A tag is at least its two length fields; as with deps above, a
		// count the buffer cannot hold fails before it sizes an allocation.
		if len(buf) < off+nTags*(2+4) {
			return 0, errShortBuffer
		}
		if cap(r.Tags) < nTags {
			r.Tags = make([]Tag, 0, nTags)
		}
		for i := 0; i < nTags; i++ {
			if len(buf) < off+2 {
				return 0, errShortBuffer
			}
			lk := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			if len(buf) < off+lk+4 {
				return 0, errShortBuffer
			}
			key := string(buf[off : off+lk])
			off += lk
			lv := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if len(buf) < off+lv {
				return 0, errShortBuffer
			}
			r.Tags = append(r.Tags, Tag{Key: key, Value: string(buf[off : off+lv])})
			off += lv
		}
	} else if cap(r.Tags) == 0 {
		r.Tags = nil
	}
	if len(buf) < off+4 {
		return 0, errShortBuffer
	}
	lb := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if len(buf) < off+lb {
		return 0, errShortBuffer
	}
	switch {
	case lb == 0:
		r.Body = nil
	case copyBody:
		r.Body = append([]byte(nil), buf[off:off+lb]...)
	default:
		r.Body = buf[off : off+lb : off+lb]
	}
	off += lb
	return off, nil
}

// EncodedSizeRecords returns the exact number of bytes AppendRecords will
// produce for recs, for single-allocation buffer sizing.
func EncodedSizeRecords(recs []*Record) int {
	n := 4
	for _, r := range recs {
		n += EncodedSize(r)
	}
	return n
}

// AppendRecords encodes a batch of records preceded by a u32 count.
func AppendRecords(dst []byte, recs []*Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	return dst
}

// decodeBatchCount reads and sanity-checks a batch's u32 count prefix: a
// count that could not possibly fit in the remaining bytes (each record
// encodes to at least minEncodedRecordSize) is rejected before any
// count-proportional allocation happens.
func decodeBatchCount(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, errShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > (len(buf)-4)/minEncodedRecordSize {
		return 0, fmt.Errorf("core: batch count %d exceeds buffer capacity: %w", n, errShortBuffer)
	}
	return n, nil
}

// DecodeRecords decodes a batch encoded by AppendRecords, returning the
// records and bytes consumed. Every record is an independent deep copy;
// for the O(1)-allocation hot-path variant see DecodeRecordsShared.
func DecodeRecords(buf []byte) ([]*Record, int, error) {
	n, err := decodeBatchCount(buf)
	if err != nil {
		return nil, 0, err
	}
	off := 4
	recs := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		r, used, err := DecodeRecord(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("core: decoding record %d/%d: %w", i, n, err)
		}
		recs = append(recs, r)
		off += used
	}
	return recs, off, nil
}
