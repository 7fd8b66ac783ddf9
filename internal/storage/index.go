package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// A page holds 512 slots: a page of the segment store's 12-byte slots is
// exactly the allocator's 6 KiB size class, and a round of any shipped
// placement (BatchSize 8 at R = N, or 1000) leaves pages full or absent.
const (
	pageBits = 9
	pageSize = 1 << pageBits
)

// table is the LId index of both stores: slot lid%pageSize of page
// lid>>pageBits holds what is stored at lid, and the zero S means nothing
// is. The directory is sorted by page number, so an ordered scan is a page
// walk and collecting a prefix touches only the pages below the bound. A
// page of a pointer-free S is an object the collector never walks.
type table[S comparable] struct {
	pages []tablePage[S]
	n     int    // occupied slots
	max   uint64 // highest LId ever set
	// collected is the last collection: every LId at or below its bound was
	// pruned and is admitted no more. Written under the store's lock, read
	// without it; nil before the first.
	collected atomic.Pointer[collection]
}

// collection is a GC bound with what the caller said the prefix below it
// covered (Store.GC).
type collection struct {
	bound   uint64
	covered []core.Dep
}

// bound returns the collected bound, 0 before the first collection, and
// what it covered.
func (t *table[S]) bound() (uint64, []core.Dep) {
	if c := t.collected.Load(); c != nil {
		return c.bound, c.covered
	}
	return 0, nil
}

type tablePage[S comparable] struct {
	no    uint64 // lid >> pageBits
	n     int    // occupied slots
	slots *[pageSize]S
}

// find returns where page no sits in the directory, or where it would be
// inserted.
func (t *table[S]) find(no uint64) (int, bool) {
	// In a dense log's directory a page lies its distance from the first away.
	if len(t.pages) > 0 {
		if i := no - t.pages[0].no; i < uint64(len(t.pages)) && t.pages[i].no == no {
			return int(i), true
		}
	}
	i := sort.Search(len(t.pages), func(i int) bool { return t.pages[i].no >= no })
	return i, i < len(t.pages) && t.pages[i].no == no
}

func (t *table[S]) get(lid uint64) (v S) {
	if i, ok := t.find(lid >> pageBits); ok {
		v = t.pages[i].slots[lid%pageSize]
	}
	return v
}

func (t *table[S]) set(lid uint64, v S) {
	i, ok := t.find(lid >> pageBits)
	if !ok {
		t.pages = slices.Insert(t.pages, i, tablePage[S]{no: lid >> pageBits, slots: new([pageSize]S)})
	}
	p := &t.pages[i]
	var zero S
	if p.slots[lid%pageSize] == zero {
		p.n++
		t.n++
	}
	p.slots[lid%pageSize] = v
	t.max = max(t.max, lid)
}

// admit checks a batch before any of it is stored: every record can be
// read back once written (the last line of defence: the layers above check
// where records enter), every record carries an LId, none is present
// already, and none appears twice in the batch.
func (t *table[S]) admit(rs []*core.Record) error {
	if err := core.CheckEncodable(rs); err != nil {
		return err
	}
	var zero S
	ascending := true
	for i, r := range rs {
		if r.LId == 0 {
			return errors.New("storage: record has no LId")
		}
		if c, _ := t.bound(); r.LId <= c {
			return fmt.Errorf("storage: LId %d is at or below the collected bound %d", r.LId, c)
		}
		if t.get(r.LId) != zero {
			return fmt.Errorf("%w: %d", ErrDuplicate, r.LId)
		}
		ascending = ascending && (i == 0 || r.LId > rs[i-1].LId)
	}
	if ascending {
		return nil
	}
	seen := make(map[uint64]struct{}, len(rs))
	for _, r := range rs {
		if _, dup := seen[r.LId]; dup {
			return fmt.Errorf("%w: %d twice in one batch", ErrDuplicate, r.LId)
		}
		seen[r.LId] = struct{}{}
	}
	return nil
}

// window appends to dst, up to its capacity, the occupied slots of the
// LIds from..to (to 0 = no bound) in ascending order. It returns the LId
// the next window starts at, 0 once the range is exhausted.
func (t *table[S]) window(dst []S, from, to uint64) ([]S, uint64) {
	var zero S
	for i, _ := t.find(from >> pageBits); i < len(t.pages); i++ {
		p, base := &t.pages[i], t.pages[i].no<<pageBits
		j := uint64(0)
		if base < from {
			j = from - base
		}
		for ; j < pageSize; j++ {
			if to != 0 && base+j > to {
				return dst, 0
			}
			if v := p.slots[j]; v != zero {
				if len(dst) == cap(dst) {
					return dst, base + j
				}
				dst = append(dst, v)
			}
		}
	}
	return dst, 0
}

// prune empties every slot of an LId <= upTo, frees the pages that leaves
// empty and raises the collected bound to upTo, with covered, visiting no
// page above it; it returns how many slots it emptied.
func (t *table[S]) prune(upTo uint64, covered []core.Dep) int {
	if b, _ := t.bound(); upTo <= b {
		return 0
	}
	t.collected.Store(&collection{bound: upTo, covered: slices.Clone(covered)})
	var zero S
	removed := 0
	keep := t.pages[:0]
	i := 0
	for ; i < len(t.pages) && t.pages[i].no <= upTo>>pageBits; i++ {
		p := t.pages[i]
		for j, v := range p.slots {
			if v != zero && p.no<<pageBits+uint64(j) <= upTo {
				p.slots[j] = zero
				p.n--
				removed++
			}
		}
		if p.n > 0 {
			keep = append(keep, p)
		}
	}
	keep = append(keep, t.pages[i:]...)
	clear(t.pages[len(keep):])
	t.pages = keep
	t.n -= removed
	return removed
}

// Sealed-segment table: "<first>.idx" beside "<first>.seg" lists the
// segment's entries in arrival order, so open indexes a sealed segment
// without reading it:
//
//	u32 magic | u32 version | u64 segment size | u32 count |
//	count × { u64 lid | u32 offset | u32 length } | u32 crc32c(all before)
//
// Offset and length are of the whole entry, header included. The table is a
// cache of what a scan of the segment yields, never the truth: written
// without fsync, no error when that fails, and used only when its CRC holds
// and the size it records is the file's.
const (
	tableSuffix     = ".idx"
	tableMagic      = 0x31584946 // "FIX1"
	tableVersion    = 1
	tableHeaderSize = 4 + 4 + 8 + 4
	tableEntrySize  = 8 + 4 + 4
)

func tablePath(segPath string) string {
	return strings.TrimSuffix(segPath, segmentSuffix) + tableSuffix
}

func appendTableEntry(b []byte, lid uint64, off, length uint32) []byte {
	b = binary.LittleEndian.AppendUint64(b, lid)
	b = binary.LittleEndian.AppendUint32(b, off)
	return binary.LittleEndian.AppendUint32(b, length)
}

func tableEntry(b []byte) (lid uint64, off, length uint32) {
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint32(b[8:]), binary.LittleEndian.Uint32(b[12:])
}

// writeTable completes b — tableHeaderSize reserved bytes, then entries —
// into the table of the sealed segment at segPath and writes it tmp + rename.
func writeTable(segPath string, segSize int64, b []byte) {
	binary.LittleEndian.PutUint32(b, tableMagic)
	binary.LittleEndian.PutUint32(b[4:], tableVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(segSize))
	binary.LittleEndian.PutUint32(b[16:], uint32((len(b)-tableHeaderSize)/tableEntrySize))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	path := tablePath(segPath)
	if os.WriteFile(path+".tmp", b, 0o644) != nil || os.Rename(path+".tmp", path) != nil {
		os.Remove(path + ".tmp") // the next open scans the segment instead
	}
}

// decodeSegmentTable returns the entry array of a table, and whether the
// table passes every check against a segment of segSize bytes. It allocates
// nothing, so a corrupt count costs nothing before the CRC has held.
func decodeSegmentTable(data []byte, segSize int64) ([]byte, bool) {
	if len(data) < tableHeaderSize+4 {
		return nil, false
	}
	body, entries := data[:len(data)-4], data[tableHeaderSize:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) ||
		binary.LittleEndian.Uint32(body) != tableMagic ||
		binary.LittleEndian.Uint32(body[4:]) != tableVersion ||
		binary.LittleEndian.Uint64(body[8:]) != uint64(segSize) ||
		uint64(binary.LittleEndian.Uint32(body[16:]))*tableEntrySize != uint64(len(entries)) {
		return nil, false
	}
	for b := entries; len(b) > 0; b = b[tableEntrySize:] {
		if lid, off, length := tableEntry(b); lid == 0 || length <= entryHeaderSize || int64(off)+int64(length) > segSize {
			return nil, false
		}
	}
	return entries, true
}

// readHandles bounds the cached read handles, so a hot tier of many
// segments cannot exhaust descriptors. The cache is direct-mapped by segment
// ordinal: a scan touches one or two neighbouring segments per window, and
// segments that collide reopen the file per read, as every read once did.
const readHandles = 16

// handle is a read-only descriptor of one segment, shared by concurrent
// readers (pread) and closed by whoever drops the last reference: the
// cache holds one, every reader in flight another.
type handle struct {
	seg  *segment
	f    *os.File
	refs atomic.Int32
}

func (h *handle) release() {
	if h.refs.Add(-1) == 0 {
		h.f.Close()
	}
}

// handle returns a referenced read handle of segment ord, or nil when GC
// has removed the segment.
func (s *SegmentStore) handle(ord uint32) (*handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	seg := s.segments[ord]
	if seg == nil {
		return nil, nil
	}
	h := s.handles[ord%readHandles]
	if h == nil || h.seg != seg {
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, fmt.Errorf("storage: opening segment for read: %w", err)
		}
		s.evictLocked(ord)
		h = &handle{seg: seg, f: f}
		h.refs.Store(1)
		s.handles[ord%readHandles] = h
	}
	h.refs.Add(1)
	return h, nil
}

// evictLocked empties the cache place segment ord maps to.
func (s *SegmentStore) evictLocked(ord uint32) {
	if h := s.handles[ord%readHandles]; h != nil {
		s.handles[ord%readHandles] = nil
		h.release()
	}
}
