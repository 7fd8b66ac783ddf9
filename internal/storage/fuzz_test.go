package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentTableDecode drives the sealed-segment table reader over
// arbitrary bytes: it must never panic, must allocate nothing however large
// a count the bytes claim (checked on the seeds), and whatever it accepts
// must be exactly what the writer produces for those entries — every one
// inside the segment.
func FuzzSegmentTableDecode(f *testing.F) {
	const segSize = 1 << 20
	// encode is the table format written out by hand, checked below against
	// what the store's writer puts on disk.
	encode := func(entries []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, tableMagic)
		b = binary.LittleEndian.AppendUint32(b, tableVersion)
		b = binary.LittleEndian.AppendUint64(b, segSize)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)/tableEntrySize))
		b = append(b, entries...)
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	}
	full := encode(appendTableEntry(appendTableEntry(nil, 1, 0, 40), 9, 40, 100))
	seg := filepath.Join(f.TempDir(), "0"+segmentSuffix)
	writeTable(seg, segSize, append(make([]byte, tableHeaderSize), full[tableHeaderSize:len(full)-4]...))
	if written, err := os.ReadFile(tablePath(seg)); err != nil || !bytes.Equal(written, full) {
		f.Fatalf("writeTable wrote %d bytes (%v), want the %d of the format", len(written), err, len(full))
	}
	f.Add(full)
	f.Add(encode(nil))
	f.Add([]byte{})
	f.Add(full[:len(full)-7])                                   // truncated
	f.Add(encode(appendTableEntry(nil, 3, segSize-10, 40)))     // entry past the segment's end
	f.Add(encode(appendTableEntry(nil, 0, 0, 40)))              // no LId
	f.Add(encode(appendTableEntry(nil, 5, 0, entryHeaderSize))) // entry with no payload
	flipped := append([]byte(nil), full...)
	flipped[tableHeaderSize+3] ^= 0x08
	f.Add(flipped)
	huge := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(huge[16:], 0xFFFFFFF0) // absurd count
	f.Add(huge)
	for _, data := range [][]byte{full, flipped, huge} {
		if allocs := testing.AllocsPerRun(10, func() { decodeSegmentTable(data, segSize) }); allocs != 0 {
			f.Fatalf("decoding a table allocated %v times; the count must cost nothing before the CRC holds", allocs)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, ok := decodeSegmentTable(data, segSize)
		if !ok {
			return
		}
		for b := entries; len(b) > 0; b = b[tableEntrySize:] {
			if lid, off, length := tableEntry(b); lid == 0 || length <= entryHeaderSize || int64(off)+int64(length) > segSize {
				t.Fatalf("accepted entry (%d, %d, %d) of a %d-byte segment", lid, off, length, segSize)
			}
		}
		if got := encode(entries); !bytes.Equal(got, data) {
			t.Fatalf("accepted table does not round-trip: %d in, %d out", len(data), len(got))
		}
	})
}
