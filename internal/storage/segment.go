package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Segment file format: a sequence of entries, each
//
//	u32 length | u32 crc32c(payload) | payload (encoded core.Record)
//
// A torn final entry (crash mid-write) is detected by length/CRC mismatch
// at open time and truncated away. Segment files are named
// "<firstWriteSeq>.seg" where firstWriteSeq is the arrival sequence number
// of the first entry, so lexicographic-by-number order is arrival order.
// Only the newest segment is read at open: a sealed one is indexed from the
// table beside it (index.go), and every read verifies its entry's CRC.

const (
	entryHeaderSize    = 8
	defaultSegmentSize = 8 << 20 // rotate after 8 MiB
	maxSegmentSize     = 1 << 31 // index slots hold 32-bit offsets
	segmentSuffix      = ".seg"
	// scanChunk slots are located per lock hold of a Scan: how far it reads
	// ahead of fn. maxRunBytes bounds one pread.
	scanChunk   = 256
	maxRunBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned by a read whose entry no longer matches the
// length and CRC-32C its header records.
var ErrCorrupt = errors.New("storage: corrupt segment entry")

// SyncPolicy controls when the segment store flushes to stable storage.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS (fastest; used by the
	// simulation benches where durability is not under test).
	SyncNever SyncPolicy = iota
	// SyncEachBatch fsyncs once per AppendBatch (the paper's maintainers
	// persist records before acknowledging).
	SyncEachBatch
	// SyncGroupCommit is fsync-paced group commit: a batch is written, then
	// waits until a completed fsync covers its write position. With no
	// fsync in flight the caller syncs at once, so a lone appender pays
	// write + fsync like SyncEachBatch; batches that land while an fsync
	// runs are all covered by the next one, so N concurrent appenders pay
	// ~1 fsync instead of N. AppendBatch still returns only after the
	// caller's records are on stable storage.
	SyncGroupCommit
)

// windowByteBuckets bound the storage_commit_window_bytes histogram:
// 256 B .. 4 MiB in powers of four.
var windowByteBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// SegmentStoreOptions configures a SegmentStore.
type SegmentStoreOptions struct {
	// MaxSegmentBytes triggers rotation to a new segment file; 0 uses a
	// default of 8 MiB.
	MaxSegmentBytes int64
	// Sync selects the durability policy.
	Sync SyncPolicy
	// FsyncHook, when set, runs immediately before every physical fsync
	// (inside the store's one-fsync-at-a-time section, so the injected
	// latency sits exactly where a slow disk's would). The fault-injection
	// harness uses it to model a degraded disk deterministically.
	FsyncHook func()
}

type segment struct {
	path   string
	first  uint64 // arrival sequence of first entry
	count  uint64 // entries indexed
	size   int64
	maxLId uint64 // highest LId stored in this segment
}

// slot is one index entry: where the whole entry (header and payload) of an
// LId lies, seg being the segment's position in SegmentStore.segments. A
// stored entry has a nonzero length, so the zero slot is "absent".
type slot struct{ seg, off, length uint32 }

// SegmentStore is a disk-backed Store: records are appended to rolling
// segment files and located through an in-memory LId index, loaded at open
// from the sealed segments' tables and a scan of the newest segment.
type SegmentStore struct {
	mu   sync.Mutex
	dir  string
	opts SegmentStoreOptions
	// segments is indexed by slot.seg: it only grows while the store is
	// open, and GC leaves nil where it removed a file.
	segments []*segment
	active   *os.File
	actSeg   *segment
	index    table[slot]
	// tbl is the table of the segment being written or scanned (header
	// space, then entries in arrival order): sealing writes it out.
	tbl      []byte
	handles  [readHandles]*handle
	writeSeq uint64
	closed   bool

	// written is the write position: framed bytes written since open,
	// across segment files. synced is the covered position: every byte
	// below it is on stable storage. At most one fsync runs at a time;
	// syncing marks a group-commit leader's fsync in flight outside mu, and
	// syncDone (on mu) is broadcast whenever synced or syncErr changes.
	// Everything in [synced, written) lies in the active file, because the
	// seal path (rotation, Close) waits out the in-flight fsync and covers
	// the rest before it closes the file.
	written  uint64
	synced   uint64
	syncing  bool
	syncDone *sync.Cond
	// syncErr is the first fsync failure, and sticky: after it the kernel
	// may have dropped the dirty pages, so a later fsync that succeeds
	// proves nothing and the store refuses every further AppendBatch.
	syncErr error
	// pending counts the batches written since the last fsync began and
	// pendTC holds the first sampled one's trace context: what the next
	// fsync covers, for the group histograms and the store.fsync span.
	pending int
	pendTC  trace.Ctx
	// syncFile is the physical sync, a seam for the failed-fsync test.
	syncFile func(*os.File) error

	// fsyncs counts physical fsyncs issued (group, per-batch and seal) —
	// the numerator of the fsyncs-per-op budget.
	fsyncs atomic.Uint64

	// encScratch is a grow-only batch-encode buffer reused across
	// AppendBatch calls (guarded by mu): the whole batch is framed into one
	// contiguous buffer and written with a single Write.
	encScratch []byte

	// fsyncLatency is set by EnableMetrics (nil until then); every
	// physical fsync observes it. winBytesH/winWaitersH record, once per
	// group fsync, the bytes and batches that fsync covered.
	fsyncLatency *metrics.BucketHistogram
	winBytesH    *metrics.BucketHistogram
	winWaitersH  *metrics.BucketHistogram
}

// FsyncCount returns how many physical fsyncs the store has issued since
// open — the fsync-collapse budget tests and the durability experiment
// read it to compute fsyncs per appended batch.
func (s *SegmentStore) FsyncCount() uint64 { return s.fsyncs.Load() }

// Durable reports whether AppendBatch implies stable storage on return
// (any policy but SyncNever). The maintainer's durable watermark only
// advances over stores that report true.
func (s *SegmentStore) Durable() bool { return s.opts.Sync != SyncNever }

// DiskStats reports the store's on-disk footprint: live (non-deleted)
// segment files and the bytes they hold. The sealed segments' tables, a
// cache open can rebuild, are not counted.
func (s *SegmentStore) DiskStats() (segments int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segments {
		if seg != nil {
			segments++
			bytes += seg.size
		}
	}
	return segments, bytes
}

// EnableMetrics registers this store's disk instrumentation with reg: fsync
// latency (the durability cost the paper's maintainers pay before acking),
// live segment count, and bytes on disk. Call before serving traffic; extra
// labels distinguish stores when one process hosts several.
func (s *SegmentStore) EnableMetrics(reg *metrics.Registry, extra ...metrics.Label) {
	s.mu.Lock()
	s.fsyncLatency = reg.Histogram("storage_fsync_seconds", metrics.LatencyBuckets, extra...)
	s.winBytesH = reg.Histogram("storage_commit_window_bytes", windowByteBuckets, extra...)
	s.winWaitersH = reg.Histogram("storage_commit_window_waiters", metrics.BatchBuckets, extra...)
	s.mu.Unlock()
	reg.CounterFunc("storage_fsync_total", func() float64 { return float64(s.fsyncs.Load()) }, extra...)
	reg.GaugeFunc("storage_segments", func() float64 {
		n, _ := s.DiskStats()
		return float64(n)
	}, extra...)
	reg.GaugeFunc("storage_disk_bytes", func() float64 {
		_, b := s.DiskStats()
		return float64(b)
	}, extra...)
	reg.GaugeFunc("storage_records", func() float64 { return float64(s.Len()) }, extra...)
}

// OpenSegmentStore opens (creating if needed) a segment store in dir and
// recovers its index: sealed segments from their tables, the newest by a
// scan that truncates any torn tail entry, then nothing at or below the
// collected bound.
func OpenSegmentStore(dir string, opts SegmentStoreOptions) (*SegmentStore, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultSegmentSize
	}
	opts.MaxSegmentBytes = min(opts.MaxSegmentBytes, maxSegmentSize)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating dir: %w", err)
	}
	s := &SegmentStore{
		dir:      dir,
		opts:     opts,
		tbl:      make([]byte, tableHeaderSize),
		syncFile: (*os.File).Sync,
	}
	s.syncDone = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *SegmentStore) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: reading dir: %w", err)
	}
	var tables []string
	for _, e := range entries {
		path := filepath.Join(s.dir, e.Name())
		suffix := filepath.Ext(path)
		first, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), suffix), 10, 64)
		switch {
		case e.IsDir():
		case suffix == ".tmp":
			os.Remove(path) // a table or bound write the crash interrupted
		case err != nil: // foreign file; ignore
		case suffix == segmentSuffix:
			s.segments = append(s.segments, &segment{path: path, first: first})
		case suffix == tableSuffix:
			tables = append(tables, path)
		}
	}
	sort.Slice(s.segments, func(i, j int) bool { return s.segments[i].first < s.segments[j].first })
	for ord, seg := range s.segments {
		st, err := os.Stat(seg.path)
		if err != nil || st.Size() > math.MaxUint32 {
			return fmt.Errorf("storage: segment %s is unreadable or past 4 GiB: %v", seg.path, err)
		}
		seg.size = st.Size()
		newest := ord == len(s.segments)-1
		if !newest {
			data, _ := os.ReadFile(tablePath(seg.path)) // a missing table decodes as a bad one
			if entries, ok := decodeSegmentTable(data, seg.size); ok {
				s.indexEntries(seg, uint32(ord), entries)
				continue
			}
		}
		if err := s.scanSegment(seg, uint32(ord), newest); err != nil {
			return err
		}
	}
	if n := len(s.segments) - 1; n >= 0 && s.segments[n].size == 0 {
		// A crash just after rotation, or a tear in the first entry, leaves
		// an empty newest segment, and the next rotation picks its name.
		os.Remove(s.segments[n].path)
		os.Remove(tablePath(s.segments[n].path))
		s.segments = s.segments[:n]
	}
	for _, path := range tables {
		segPath := strings.TrimSuffix(path, tableSuffix) + segmentSuffix
		if _, err := os.Stat(segPath); errors.Is(err, fs.ErrNotExist) {
			os.Remove(path) // GC removed the segment, then crashed
		}
	}
	bound, covered, err := readBound(s.dir)
	if err == nil {
		_, err = s.collectLocked(bound, covered)
	}
	return err
}

// scanSegment reads a segment of seg.size bytes end to end, indexes it and
// writes its table. With truncateTorn a malformed tail is cut, not an error.
func (s *SegmentStore) scanSegment(seg *segment, ord uint32, truncateTorn bool) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("storage: opening segment: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<18)
	s.tbl = s.tbl[:tableHeaderSize]
	var offset int64
	var hdr [entryHeaderSize]byte
	// One grow-only payload scratch and one reused Record: indexing needs
	// only the decoded LId, so a view into the scratch is enough.
	var payload []byte
	var rec core.Record
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			break
		}
		length := binary.LittleEndian.Uint32(hdr[:])
		// A length that runs past the file is a tear, known before
		// anything of that size is allocated.
		if err == nil && int64(length) > seg.size-offset-entryHeaderSize {
			err = io.ErrUnexpectedEOF
		}
		if err == nil {
			if uint32(cap(payload)) < length {
				payload = make([]byte, length)
			}
			payload = payload[:length]
			_, err = io.ReadFull(r, payload)
		}
		if err == nil && crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) && truncateTorn {
			if err := os.Truncate(seg.path, offset); err != nil {
				return fmt.Errorf("storage: truncating torn tail: %w", err)
			}
			break
		}
		if err != nil {
			return fmt.Errorf("%w: segment %s torn or CRC mismatch at %d: %v", ErrCorrupt, seg.path, offset, err)
		}
		if _, err := core.DecodeRecordView(&rec, payload); err != nil {
			return fmt.Errorf("storage: segment %s undecodable record at %d: %w", seg.path, offset, err)
		}
		s.tbl = appendTableEntry(s.tbl, rec.LId, uint32(offset), entryHeaderSize+length)
		offset += entryHeaderSize + int64(length)
	}
	seg.size = offset
	s.indexEntries(seg, ord, s.tbl[tableHeaderSize:])
	writeTable(seg.path, seg.size, s.tbl)
	return nil
}

// indexEntries is the one place the index learns of records: the table
// entries of segment ord, from a loaded table, a scan, or a batch just written.
func (s *SegmentStore) indexEntries(seg *segment, ord uint32, entries []byte) {
	for ; len(entries) > 0; entries = entries[tableEntrySize:] {
		lid, off, length := tableEntry(entries)
		s.index.set(lid, slot{ord, off, length})
		seg.maxLId = max(seg.maxLId, lid)
		seg.count++
	}
	s.writeSeq = max(s.writeSeq, seg.first+seg.count)
}

// fsync performs the physical fsync on f with full accounting: the
// FsyncHook (fault injection), the fsync counter, the latency histogram and
// the store.fsync span. Callers guarantee f stays open across the call:
// they either hold mu or have set syncing, which the seal path waits out.
func (s *SegmentStore) fsync(f *os.File, tc trace.Ctx) error {
	if s.opts.FsyncHook != nil {
		s.opts.FsyncHook()
	}
	fs := trace.Begin(tc, "store.fsync")
	start := time.Now()
	err := s.syncFile(f)
	fs.End(trace.Default(), "", 0, 0)
	s.fsyncs.Add(1)
	if s.fsyncLatency != nil {
		s.fsyncLatency.ObserveSinceEx(start, uint64(tc.T))
	}
	if err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	return nil
}

// syncLocked issues one fsync covering everything written so far and
// publishes the outcome: the covered position on success, the sticky error
// on failure. Caller holds mu with no fsync in flight. With overlap set (the
// group-commit leader) mu is released while the disk works, so later
// batches keep landing behind the captured position and are covered by the
// next fsync; the seal path and SyncEachBatch keep mu held.
func (s *SegmentStore) syncLocked(overlap bool) error {
	f, upTo, batches, tc := s.active, s.written, s.pending, s.pendTC
	bytes := upTo - s.synced
	s.pending, s.pendTC = 0, trace.Ctx{}
	if overlap {
		s.syncing = true
		s.mu.Unlock()
	}
	err := s.fsync(f, tc)
	if overlap {
		s.mu.Lock()
		s.syncing = false
	}
	if err != nil {
		s.syncErr = err
	} else {
		s.synced = upTo
	}
	if s.opts.Sync == SyncGroupCommit {
		if s.winBytesH != nil {
			s.winBytesH.Observe(float64(bytes))
		}
		if s.winWaitersH != nil {
			s.winWaitersH.Observe(float64(batches))
		}
	}
	s.syncDone.Broadcast()
	return err
}

// awaitSyncLocked is the SyncGroupCommit wait: it returns once a completed
// fsync covers pos, or with the sticky error. While another caller's fsync
// is in flight it waits for that one (which may or may not cover pos);
// otherwise it leads the next fsync itself, at once — the group is whatever
// landed while the previous fsync ran, and an idle disk makes nobody wait.
// Caller holds mu.
func (s *SegmentStore) awaitSyncLocked(pos uint64) error {
	for s.synced < pos && s.syncErr == nil {
		if s.syncing {
			s.syncDone.Wait()
		} else {
			_ = s.syncLocked(true) // the loop reads the outcome back
		}
	}
	return s.syncErr
}

// sealActiveLocked makes the active file durable (one fsync, only if it
// holds bytes no fsync covered) and closes it, so commit groups never span
// segment files and the next segment opens clean. Caller holds mu and has
// waited out any in-flight fsync.
func (s *SegmentStore) sealActiveLocked() error {
	if s.active == nil {
		return nil
	}
	err := s.syncErr
	if err == nil && s.opts.Sync != SyncNever && s.synced < s.written {
		err = s.syncLocked(false)
	}
	cerr := s.active.Close()
	s.active = nil
	if err == nil {
		err = cerr
	}
	if err == nil {
		writeTable(s.actSeg.path, s.actSeg.size, s.tbl)
	}
	return err
}

// rotateLocked seals the current active segment and opens a fresh one.
// Caller holds mu.
func (s *SegmentStore) rotateLocked() error {
	if err := s.sealActiveLocked(); err != nil {
		return err
	}
	seg := &segment{
		path:  filepath.Join(s.dir, fmt.Sprintf("%020d%s", s.writeSeq, segmentSuffix)),
		first: s.writeSeq,
	}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating segment: %w", err)
	}
	s.active = f
	s.actSeg = seg
	s.segments = append(s.segments, seg)
	s.tbl = s.tbl[:tableHeaderSize]
	return nil
}

// Append implements Store.
func (s *SegmentStore) Append(r *core.Record) error {
	return s.AppendBatch([]*core.Record{r})
}

// rotationDueLocked reports whether the next batch must open a new segment
// file first. Caller holds mu.
func (s *SegmentStore) rotationDueLocked() bool {
	return s.active == nil || s.actSeg.size >= s.opts.MaxSegmentBytes
}

// AppendBatch implements Store. Under SyncGroupCommit the records are
// written and indexed inline but the call returns only after an fsync
// covers them, so durability-on-return holds under every sync policy
// except SyncNever.
func (s *SegmentStore) AppendBatch(rs []*core.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rotation closes the active file, so it waits out an fsync in flight
	// on it. Wait releases mu: everything below reads state afresh.
	for s.syncing && s.rotationDueLocked() {
		s.syncDone.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	if err := s.index.admit(rs); err != nil {
		return err
	}
	// One trace context covers the whole batch: the first sampled record's
	// (batches are stored together, so their durability cost is shared).
	var tc trace.Ctx
	for _, r := range rs {
		if r.Trace.Sampled() {
			tc = r.Trace
			break
		}
	}
	if s.rotationDueLocked() {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	// Frame the whole batch into one reusable buffer: reserve each entry
	// header, encode the record in place behind it, then patch length and
	// CRC — one group write (and at most one fsync) per batch.
	total := 0
	for _, r := range rs {
		total += entryHeaderSize + core.EncodedSize(r)
	}
	if s.actSeg.size+int64(total) > math.MaxUint32 {
		return fmt.Errorf("storage: batch of %d bytes does not fit a segment", total)
	}
	if cap(s.encScratch) < total {
		s.encScratch = make([]byte, 0, total)
	}
	buf := s.encScratch[:0]
	for _, r := range rs {
		start := len(buf)
		buf = append(buf, make([]byte, entryHeaderSize)...)
		buf = core.AppendRecord(buf, r)
		payload := buf[start+entryHeaderSize:]
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	}
	s.encScratch = buf
	wr := trace.Begin(tc, "store.write")
	if _, err := s.active.Write(buf); err != nil {
		return fmt.Errorf("storage: writing batch: %w", err)
	}
	wr.End(trace.Default(), "", rs[0].LId, len(rs))
	s.written += uint64(len(buf))
	s.pending++
	if !s.pendTC.Sampled() {
		s.pendTC = tc
	}
	if s.opts.Sync == SyncEachBatch {
		if err := s.syncLocked(false); err != nil {
			return err
		}
	}
	// Only now that the write has held is the batch listed in the segment's
	// table, entry by entry as framed, and indexed.
	landed := len(s.tbl)
	for _, r := range rs {
		n := entryHeaderSize + binary.LittleEndian.Uint32(buf)
		s.tbl = appendTableEntry(s.tbl, r.LId, uint32(s.actSeg.size), n)
		s.actSeg.size += int64(n)
		buf = buf[n:]
	}
	s.indexEntries(s.actSeg, uint32(len(s.segments)-1), s.tbl[landed:])
	if s.opts.Sync == SyncGroupCommit {
		return s.awaitSyncLocked(s.written)
	}
	return nil
}

// readRun fetches one run — entries adjacent in one segment — with a single
// pread, verifies each entry against the length and CRC its header records,
// and decodes it onto out; buf is the caller's grow-only scratch. Records
// ahead of a corrupt entry are returned with the error. A run whose segment
// GC removed after it was located yields nothing.
func (s *SegmentStore) readRun(run []slot, buf []byte, out []*core.Record) ([]byte, []*core.Record, error) {
	h, err := s.handle(run[0].seg)
	if h == nil {
		return buf, out, err
	}
	defer h.release()
	first, last := run[0], run[len(run)-1]
	if size := int(last.off + last.length - first.off); cap(buf) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	if _, err := h.f.ReadAt(buf, int64(first.off)); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: segment %s ends inside the entry at %d", ErrCorrupt, h.seg.path, first.off)
		}
		return buf, out, fmt.Errorf("storage: reading entry: %w", err)
	}
	for _, e := range run {
		entry := buf[e.off-first.off:][:e.length]
		payload := entry[entryHeaderSize:]
		if binary.LittleEndian.Uint32(entry) == uint32(len(payload)) &&
			binary.LittleEndian.Uint32(entry[4:]) == crc32.Checksum(payload, castagnoli) {
			if rec, used, err := core.DecodeRecord(payload); err == nil && used == len(payload) {
				out = append(out, rec)
				continue
			}
		}
		return buf, out, fmt.Errorf("%w: segment %s at %d", ErrCorrupt, h.seg.path, e.off)
	}
	return buf, out, nil
}

// Get implements Store: a Scan of the one position.
func (s *SegmentStore) Get(lid uint64) (rec *core.Record, err error) {
	if lid != 0 {
		err = s.Scan(lid, lid, func(r *core.Record) bool { rec = r; return false })
	}
	if err == nil && rec == nil {
		err = core.ErrNoSuchRecord
	}
	return rec, err
}

// Scan implements Store. It walks the index a chunk at a time, so a scan
// that fn stops early has located at most scanChunk records it did not
// need, and reads each run of entries adjacent on disk with one pread.
func (s *SegmentStore) Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error {
	n := uint64(scanChunk)
	if span := maxLId - minLId; maxLId != 0 && span < n {
		n = span + 1
	}
	chunk := make([]slot, 0, n)
	var buf []byte
	var recs []*core.Record
	for next := max(minLId, 1); next != 0; {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		chunk, next = s.index.window(chunk[:0], next, maxLId)
		s.mu.Unlock()
		for i := 0; i < len(chunk); {
			j := i + 1
			for j < len(chunk) && chunk[j].seg == chunk[i].seg && chunk[j].off == chunk[j-1].off+chunk[j-1].length &&
				chunk[j].off+chunk[j].length-chunk[i].off <= maxRunBytes {
				j++
			}
			var err error
			buf, recs, err = s.readRun(chunk[i:j], buf, recs[:0])
			for _, r := range recs {
				if !fn(r) {
					return nil
				}
			}
			if err != nil {
				return err
			}
			i = j
		}
	}
	return nil
}

// MaxLId implements Store.
func (s *SegmentStore) MaxLId() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.max
}

// Len implements Store.
func (s *SegmentStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.n
}

// GC implements Store. The bound is made durable before anything goes; then
// the index lets go of every LId at or below it, and a sealed segment is
// removed once every record in it is collected.
func (s *SegmentStore) GC(upTo uint64, covered []core.Dep) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if b, _ := s.index.bound(); upTo > b {
		if err := writeBound(s.dir, upTo, covered); err != nil {
			return 0, err
		}
	}
	return s.collectLocked(upTo, covered)
}

// Collected implements Store.
func (s *SegmentStore) Collected() (uint64, []core.Dep) { return s.index.bound() }

// collectLocked prunes the index up to bound and removes the sealed
// segments the collected bound covers whole, with their tables. Open runs
// it too, finishing a collection a crash cut short. Caller holds mu.
func (s *SegmentStore) collectLocked(bound uint64, covered []core.Dep) (int, error) {
	removed := s.index.prune(bound, covered)
	bound, _ = s.index.bound()
	for ord, seg := range s.segments {
		if seg == nil || seg == s.actSeg || seg.maxLId > bound {
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			return removed, fmt.Errorf("storage: removing segment: %w", err)
		}
		os.Remove(tablePath(seg.path)) // a table left behind is an orphan the next open deletes
		s.evictLocked(uint32(ord))
		s.segments[ord] = nil
	}
	return removed, nil
}

// The collected bound lives in boundFile beside the segments, replaced
// tmp + rename and synced, file and directory, before GC removes a segment
// it covers:
//
//	u64 bound | n × { u16 host | u64 TOId } | u32 crc32c(all before)
const boundFile = "collected"

func writeBound(dir string, bound uint64, covered []core.Dep) error {
	b := binary.LittleEndian.AppendUint64(nil, bound)
	for _, d := range covered {
		b = binary.LittleEndian.AppendUint16(b, uint16(d.DC))
		b = binary.LittleEndian.AppendUint64(b, d.TOId)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	path := filepath.Join(dir, boundFile)
	f, err := os.Create(path + ".tmp")
	if err == nil {
		_, err = f.Write(b)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("storage: writing the collected bound: %w", err)
	}
	return nil
}

// readBound returns the bound boundFile records with its covered list, 0
// and nil when there is none.
func readBound(dir string) (uint64, []core.Dep, error) {
	b, err := os.ReadFile(filepath.Join(dir, boundFile))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return 0, nil, nil
	case err == nil && (len(b) < 12 || (len(b)-12)%10 != 0 ||
		crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:])):
		err = ErrCorrupt
	}
	if err != nil {
		return 0, nil, fmt.Errorf("storage: reading the collected bound: %w", err)
	}
	var covered []core.Dep
	for e := b[8 : len(b)-4]; len(e) > 0; e = e[10:] {
		covered = append(covered, core.Dep{DC: core.DCID(binary.LittleEndian.Uint16(e)), TOId: binary.LittleEndian.Uint64(e[2:])})
	}
	return binary.LittleEndian.Uint64(b), covered, nil
}

// Close implements Store. It refuses new appends, waits out an in-flight
// group fsync, and seals: batches still waiting for coverage are made
// durable by the seal's fsync and wake with its outcome, so no AppendBatch
// caller is left parked.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for s.syncing {
		s.syncDone.Wait()
	}
	for i := range s.handles {
		s.evictLocked(uint32(i))
	}
	return s.sealActiveLocked()
}
