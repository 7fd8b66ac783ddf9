package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// encodeEntries frames recs exactly as AppendBatch writes them to a
// segment: a length and CRC-32C header before each encoded record.
func encodeEntries(recs []*core.Record) []byte {
	var buf []byte
	for _, r := range recs {
		start := len(buf)
		buf = append(buf, make([]byte, entryHeaderSize)...)
		buf = core.AppendRecord(buf, r)
		payload := buf[start+entryHeaderSize:]
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	}
	return buf
}

// buildSegments writes records 1..n into a fresh store that rotates every
// 1 KiB and closes it, so dir holds a dozen or more sealed segments, each
// with its table. It returns the segment paths in arrival order.
func buildSegments(t *testing.T, dir string, n uint64) []string {
	t.Helper()
	s := openSeg(t, dir, SegmentStoreOptions{MaxSegmentBytes: 1024})
	for lid := uint64(1); lid <= n; lid += 4 {
		if err := s.AppendBatch([]*core.Record{rec(lid), rec(lid + 1), rec(lid + 2), rec(lid + 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if len(segs) < 12 {
		t.Fatalf("only %d segments", len(segs))
	}
	for _, seg := range segs {
		if _, err := os.Stat(tablePath(seg)); err != nil {
			t.Fatalf("sealed segment without a table: %v", err)
		}
	}
	return segs
}

// scribble overwrites each file with garbage of the same size: a store that
// still opens has not read it, and a read of it must fail as corrupt.
func scribble(t *testing.T, paths []string) {
	t.Helper()
	for _, path := range paths {
		st, err := os.Stat(path)
		if err == nil {
			err = os.WriteFile(path, bytes.Repeat([]byte{0xA5}, int(st.Size())), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// dump scans the whole store into LId → encoded record.
func dump(t *testing.T, s Store) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	if err := s.Scan(0, 0, func(r *core.Record) bool {
		if _, twice := out[r.LId]; twice {
			t.Errorf("LId %d scanned twice", r.LId)
		}
		out[r.LId] = string(core.MarshalRecord(r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(out) {
		t.Errorf("Len = %d, scan yields %d", s.Len(), len(out))
	}
	return out
}

func sameRecords(t *testing.T, got, want map[uint64]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for lid, enc := range want {
		if got[lid] != enc {
			t.Fatalf("record %d differs or is missing", lid)
		}
	}
}

// TestSegmentTableRecovery damages the tables every way a crash or a bad
// disk can, reopens, and requires exactly the record set a full scan of the
// segments yields — the table is a cache, never the truth — and a usable
// table beside every sealed segment afterwards.
func TestSegmentTableRecovery(t *testing.T) {
	const n = 400
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, segs []string)
	}{
		{"intact", func(*testing.T, string, []string) {}},
		{"missing", func(t *testing.T, _ string, segs []string) { os.Remove(tablePath(segs[2])) }},
		{"all-missing", func(t *testing.T, _ string, segs []string) {
			for _, seg := range segs {
				os.Remove(tablePath(seg))
			}
		}},
		{"truncated", func(t *testing.T, _ string, segs []string) {
			rewrite(t, tablePath(segs[3]), func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"empty", func(t *testing.T, _ string, segs []string) {
			rewrite(t, tablePath(segs[3]), func([]byte) []byte { return nil })
		}},
		{"bit-flipped", func(t *testing.T, _ string, segs []string) {
			rewrite(t, tablePath(segs[4]), func(b []byte) []byte { b[tableHeaderSize+9] ^= 0x10; return b })
		}},
		{"size-disagrees", func(t *testing.T, _ string, segs []string) {
			// A table that is valid in itself, of a segment that has grown
			// since: one more intact entry appended behind its back.
			rewrite(t, segs[5], func(b []byte) []byte { return append(b, encodeEntries([]*core.Record{rec(n + 1)})...) })
		}},
		{"crash-before-rename", func(t *testing.T, _ string, segs []string) {
			if err := os.Rename(tablePath(segs[2]), tablePath(segs[2])+".tmp"); err != nil {
				t.Fatal(err)
			}
		}},
		{"crash-mid-tmp-write", func(t *testing.T, _ string, segs []string) {
			os.WriteFile(tablePath(segs[2])+".tmp", []byte("half a tab"), 0o644)
		}},
		{"orphan", func(t *testing.T, dir string, segs []string) {
			// GC removed a segment and crashed before removing its table.
			b, _ := os.ReadFile(tablePath(segs[1]))
			os.WriteFile(filepath.Join(dir, "00000000000000099999"+tableSuffix), b, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			segs := buildSegments(t, dir, n)
			want := map[uint64]string{}
			for lid := uint64(1); lid <= n; lid++ {
				want[lid] = string(core.MarshalRecord(rec(lid)))
			}
			if tc.name == "size-disagrees" {
				want[n+1] = string(core.MarshalRecord(rec(n + 1)))
			}
			tc.damage(t, dir, segs)

			s := openSeg(t, dir, SegmentStoreOptions{})
			sameRecords(t, dump(t, s), want)
			if got := s.MaxLId(); got != uint64(len(want)) {
				t.Errorf("MaxLId = %d, want %d", got, len(want))
			}
			// The store stays appendable, past every recovered sequence number.
			if err := s.Append(rec(n + 2)); err != nil {
				t.Fatal(err)
			}
			s.Close()

			// Afterwards: a usable table beside every segment, and nothing else.
			segs, _ = filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
			for _, seg := range segs {
				st, _ := os.Stat(seg)
				data, _ := os.ReadFile(tablePath(seg))
				if _, ok := decodeSegmentTable(data, st.Size()); !ok {
					t.Errorf("no usable table beside %s after reopen", filepath.Base(seg))
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*"+tableSuffix+"*")); len(left) != len(segs) {
				t.Errorf("%d table files for %d segments: %v", len(left), len(segs), left)
			}
		})
	}
}

// TestOpenReadsOnlyNewestSegment is the O(tail) recovery bar: with every
// sealed segment's bytes replaced by garbage of the same size, open still
// succeeds with Len and MaxLId exact — so it read none of them — and reads
// of the one segment left intact still work.
func TestOpenReadsOnlyNewestSegment(t *testing.T) {
	dir := t.TempDir()
	segs := buildSegments(t, dir, 400)
	scribble(t, segs[:len(segs)-1])
	s := openSeg(t, dir, SegmentStoreOptions{})
	defer s.Close()
	if s.Len() != 400 || s.MaxLId() != 400 {
		t.Fatalf("Len = %d, MaxLId = %d, want 400, 400", s.Len(), s.MaxLId())
	}
	if r, err := s.Get(400); err != nil || string(r.Body) != "body-400" {
		t.Errorf("Get(400) from the newest segment: %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get(1) from an overwritten segment: %v, want ErrCorrupt", err)
	}
}

// TestSealedCorruptionFailsOnlyItsReads flips one bit in the middle of a
// sealed segment. Open no longer reads that segment, so every read does the
// check open used to: the Get and the Scans that touch the damaged record
// fail with ErrCorrupt, after delivering the records ahead of it, and every
// other read is served.
func TestSealedCorruptionFailsOnlyItsReads(t *testing.T) {
	dir := t.TempDir()
	segs := buildSegments(t, dir, 400)
	s := openSeg(t, dir, SegmentStoreOptions{})
	var victim uint64 // the second record of the third segment
	for lid := uint64(1); victim == 0; lid++ {
		if s.index.get(lid).seg == 2 && s.index.get(lid).off > 0 {
			victim = lid
		}
	}
	at := s.index.get(victim)
	s.Close()
	data, _ := os.ReadFile(segs[2])
	data[at.off+at.length/2] ^= 0x04
	os.WriteFile(segs[2], data, 0o644)

	s = openSeg(t, dir, SegmentStoreOptions{})
	defer s.Close()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
	for lid := uint64(1); lid <= 400; lid++ {
		r, err := s.Get(lid)
		switch {
		case lid == victim && !errors.Is(err, ErrCorrupt):
			t.Fatalf("Get(%d) of the damaged record: %v, want ErrCorrupt", lid, err)
		case lid != victim && (err != nil || r.LId != lid):
			t.Fatalf("Get(%d): %v", lid, err)
		}
	}
	var got []uint64
	err := s.Scan(victim-5, victim+5, func(r *core.Record) bool { got = append(got, r.LId); return true })
	if !errors.Is(err, ErrCorrupt) || len(got) != 5 || got[4] != victim-1 {
		t.Errorf("Scan across the damaged record: %v after %v, want ErrCorrupt after the 5 records ahead of it", err, got)
	}
	for _, w := range [][2]uint64{{1, victim - 1}, {victim + 1, 400}} {
		n := 0
		if err := s.Scan(w[0], w[1], func(*core.Record) bool { n++; return true }); err != nil || n != int(w[1]-w[0]+1) {
			t.Errorf("Scan(%d, %d) beside the damaged record: %d records, %v", w[0], w[1], n, err)
		}
	}
}

// TestGCRemovesTableWithSegment: collected segments take their tables with
// them, and a reopen after a collection that crashed halfway — segment
// gone, table left, or the reverse — neither resurrects nor loses a record.
func TestGCRemovesTableWithSegment(t *testing.T) {
	dir := t.TempDir()
	segs := buildSegments(t, dir, 400)
	s := openSeg(t, dir, SegmentStoreOptions{})
	removed, err := s.GC(200, nil)
	if err != nil || removed == 0 {
		t.Fatalf("GC = %d, %v", removed, err)
	}
	want := dump(t, s)
	s.Close()
	liveSegs, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	tables, _ := filepath.Glob(filepath.Join(dir, "*"+tableSuffix))
	if len(liveSegs) >= len(segs) || len(tables) != len(liveSegs) {
		t.Fatalf("after GC: %d segments (of %d), %d tables", len(liveSegs), len(segs), len(tables))
	}
	// Crash orderings of the next collection: one segment removed with its
	// table left behind, another's table removed with the segment left.
	gone, _ := os.ReadFile(liveSegs[0])
	os.Remove(liveSegs[0])
	os.Remove(tablePath(liveSegs[1]))
	s = openSeg(t, dir, SegmentStoreOptions{})
	defer s.Close()
	// What the removed segment held, read back by a store of its own.
	lostDir := t.TempDir()
	os.WriteFile(filepath.Join(lostDir, "1"+segmentSuffix), gone, 0o644)
	ls := openSeg(t, lostDir, SegmentStoreOptions{})
	lost := dump(t, ls)
	ls.Close()
	if len(lost) == 0 {
		t.Fatal("the removed segment held no records")
	}
	for lid := range lost {
		delete(want, lid)
	}
	sameRecords(t, dump(t, s), want)
	if _, err := os.Stat(tablePath(liveSegs[0])); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("orphan table survived the reopen: %v", err)
	}
}

// TestCollectedBoundBeforeSegmentRemoval: GC makes its bound durable before
// it removes a segment. A crash between the two — the bound written, every
// segment still there — reopens with nothing at or below the bound
// readable, no append taken there, the covered segments gone and the
// bound's covered list kept; a crash inside the bound write leaves the
// previous bound.
func TestCollectedBoundBeforeSegmentRemoval(t *testing.T) {
	dir := t.TempDir()
	segs := buildSegments(t, dir, 400)
	covered := []core.Dep{{DC: 0, TOId: 200}, {DC: 2, TOId: 1 << 40}}
	if err := writeBound(dir, 200, covered); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, boundFile+".tmp"), []byte{0xde, 0xad}, 0o644) // the next write, torn
	for reopen := 0; reopen < 2; reopen++ {
		s := openSeg(t, dir, SegmentStoreOptions{})
		if got, cov := s.Collected(); got != 200 || fmt.Sprint(cov) != fmt.Sprint(covered) {
			t.Errorf("Collected after reopen = %d %v, want 200 %v", got, cov, covered)
		}
		for _, lid := range []uint64{1, 199, 200} {
			if _, err := s.Get(lid); !errors.Is(err, core.ErrNoSuchRecord) {
				t.Errorf("Get(%d) at or below the bound = %v, want ErrNoSuchRecord", lid, err)
			}
		}
		got := dump(t, s)
		for lid := uint64(201); lid <= 400; lid++ {
			if _, ok := got[lid]; !ok {
				t.Fatalf("record %d above the bound lost", lid)
			}
		}
		if len(got) != 200 {
			t.Errorf("reopen reads %d records, want the 200 above the bound", len(got))
		}
		if err := s.Append(rec(150)); err == nil {
			t.Error("append at a collected LId succeeded")
		}
		s.Close()
	}
	live, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	tables, _ := filepath.Glob(filepath.Join(dir, "*"+tableSuffix))
	if len(live) >= len(segs) || len(tables) != len(live) {
		t.Errorf("reopen left %d of %d segments and %d tables", len(live), len(segs), len(tables))
	}
	if _, err := os.Stat(filepath.Join(dir, boundFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("torn bound write survived the reopen: %v", err)
	}
	// A damaged bound must not open as "nothing collected".
	os.WriteFile(filepath.Join(dir, boundFile), []byte{1, 2, 3}, 0o644)
	if s, err := OpenSegmentStore(dir, SegmentStoreOptions{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			s.Close()
		}
		t.Errorf("open over a damaged bound = %v, want ErrCorrupt", err)
	}
}

// TestReopenAfterCrashBehindRotation: a crash between creating a segment
// and its first entry landing — or with that entry torn — leaves an empty
// newest segment whose name the next rotation picks again. The store must
// open, keep every earlier record, and take appends.
func TestReopenAfterCrashBehindRotation(t *testing.T) {
	for _, tail := range [][]byte{nil, {0x40, 0, 0, 0, 0xde, 0xad}} {
		dir := t.TempDir()
		s := openSeg(t, dir, SegmentStoreOptions{})
		for lid := uint64(1); lid <= 5; lid++ {
			s.Append(rec(lid))
		}
		s.Close()
		os.WriteFile(filepath.Join(dir, "00000000000000000005"+segmentSuffix), tail, 0o644)
		for reopen := 0; reopen < 2; reopen++ {
			s = openSeg(t, dir, SegmentStoreOptions{})
			if err := s.Append(rec(uint64(6 + reopen))); err != nil {
				t.Fatalf("append after reopen %d: %v", reopen, err)
			}
			if got := s.Len(); got != 6+reopen {
				t.Fatalf("Len = %d after reopen %d", got, reopen)
			}
			s.Close()
		}
	}
}

// TestUnencodableRecordLeavesStoreOpenable: a record with a 70,000-byte tag
// key used to be written with its key length truncated to 16 bits — Append
// returned nil, Get of it failed ErrCorrupt, and once closed the store never
// opened again ("undecodable record"). Both stores now refuse it, whole
// batch and all, and a store that refused one reopens to exactly what it
// held.
func TestUnencodableRecordLeavesStoreOpenable(t *testing.T) {
	bad := rec(3)
	bad.Tags = []core.Tag{{Key: string(make([]byte, 70000)), Value: "v"}}
	dir := t.TempDir()
	seg := openSeg(t, dir, SegmentStoreOptions{})
	for _, s := range []Store{seg, NewMemStore()} {
		if err := s.AppendBatch([]*core.Record{rec(1), rec(2)}); err != nil {
			t.Fatal(err)
		}
		before := dump(t, s)
		if err := s.AppendBatch([]*core.Record{bad, rec(4)}); !errors.Is(err, core.ErrUnencodable) {
			t.Fatalf("%T: AppendBatch of an unencodable record = %v, want ErrUnencodable", s, err)
		}
		if _, err := s.Get(4); !errors.Is(err, core.ErrNoSuchRecord) {
			t.Errorf("%T: the rest of the refused batch was stored (Get(4) = %v)", s, err)
		}
		if err := s.Append(rec(3)); err != nil {
			t.Errorf("%T: the refused position is not free: %v", s, err)
		}
		before[3] = string(core.MarshalRecord(rec(3)))
		sameRecords(t, dump(t, s), before)
	}
	want := dump(t, seg)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg = openSeg(t, dir, SegmentStoreOptions{})
	defer seg.Close()
	sameRecords(t, dump(t, seg), want)
}
