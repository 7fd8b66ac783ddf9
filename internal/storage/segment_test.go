package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func openSeg(t *testing.T, dir string, opts SegmentStoreOptions) *SegmentStore {
	t.Helper()
	s, err := OpenSegmentStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncEachBatch})
	for lid := uint64(1); lid <= 20; lid++ {
		if err := s.Append(rec(lid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openSeg(t, dir, SegmentStoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != 20 {
		t.Fatalf("recovered Len = %d, want 20", got)
	}
	if got := s2.MaxLId(); got != 20 {
		t.Errorf("recovered MaxLId = %d, want 20", got)
	}
	r, err := s2.Get(13)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Body) != "body-13" {
		t.Errorf("recovered body = %q", r.Body)
	}
	// New appends after reopen must not collide with recovered state.
	if err := s2.Append(rec(21)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(rec(13)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate after reopen: %v", err)
	}
}

func TestSegmentStoreRotation(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{MaxSegmentBytes: 256})
	for lid := uint64(1); lid <= 50; lid++ {
		if err := s.Append(rec(lid)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	files, _ := os.ReadDir(dir)
	nseg := 0
	for _, f := range files {
		if strings.HasSuffix(f.Name(), segmentSuffix) {
			nseg++
		}
	}
	if nseg < 2 {
		t.Fatalf("expected rotation to create multiple segments, got %d", nseg)
	}
	// All records must still be readable after rotation + reopen.
	s2 := openSeg(t, dir, SegmentStoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != 50 {
		t.Errorf("Len after rotation reopen = %d, want 50", got)
	}
}

func TestSegmentStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncEachBatch})
	for lid := uint64(1); lid <= 5; lid++ {
		s.Append(rec(lid))
	}
	s.Close()

	// Simulate a crash mid-write: append garbage half-entry to the
	// segment file.
	files, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if len(files) == 0 {
		t.Fatal("no segment file found")
	}
	f, err := os.OpenFile(files[len(files)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}) // claims 64-byte entry, truncated
	f.Close()

	s2 := openSeg(t, dir, SegmentStoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != 5 {
		t.Fatalf("after torn-tail recovery Len = %d, want 5", got)
	}
	// The store must be appendable after truncation.
	if err := s2.Append(rec(6)); err != nil {
		t.Fatal(err)
	}
	if r, err := s2.Get(6); err != nil || string(r.Body) != "body-6" {
		t.Errorf("post-recovery append unreadable: %v", err)
	}
}

func TestSegmentStoreCorruptCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncEachBatch})
	s.Append(rec(1))
	s.Append(rec(2))
	s.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last entry's payload: CRC check must reject it
	// and recovery truncates from there.
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openSeg(t, dir, SegmentStoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != 1 {
		t.Fatalf("after CRC-corruption recovery Len = %d, want 1", got)
	}
	if _, err := s2.Get(1); err != nil {
		t.Errorf("first record lost: %v", err)
	}
}

// TestSegmentStoreTornBatchFrame crashes the store mid-batch: AppendBatch
// frames the whole batch into one buffer and one Write, so a power cut can
// leave a prefix of that frame on disk — intact entries for the first
// records of the batch, then a torn final entry. Recovery must keep the
// intact prefix (batches are NOT all-or-nothing; the durable unit is the
// entry) and truncate the tear so the position can be rewritten, e.g. by a
// replica catch-up stream replaying the same LIds.
func TestSegmentStoreTornBatchFrame(t *testing.T) {
	// The batch on disk: entries for LIds 4,5,6 appended as one frame after
	// an earlier batch of 1,2,3.
	entrySize := func(lid uint64) int64 { return int64(entryHeaderSize + core.EncodedSize(rec(lid))) }
	for _, tc := range []struct {
		name string
		// tear returns how many bytes of record 6's entry survive the crash.
		tear func() int64
	}{
		{"mid-header", func() int64 { return 3 }},                    // length field itself torn
		{"mid-payload", func() int64 { return entryHeaderSize + 3 }}, // header intact, payload short
		{"payload-minus-one", func() int64 { return entrySize(6) - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncEachBatch})
			if err := s.AppendBatch([]*core.Record{rec(1), rec(2), rec(3)}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendBatch([]*core.Record{rec(4), rec(5), rec(6)}); err != nil {
				t.Fatal(err)
			}
			s.Close()

			files, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
			if len(files) != 1 {
				t.Fatalf("expected one segment, got %v", files)
			}
			st, err := os.Stat(files[0])
			if err != nil {
				t.Fatal(err)
			}
			// Cut inside record 6's entry, keeping tc.tear() bytes of it.
			keep := st.Size() - entrySize(6) + tc.tear()
			if err := os.Truncate(files[0], keep); err != nil {
				t.Fatal(err)
			}

			s2 := openSeg(t, dir, SegmentStoreOptions{Sync: SyncEachBatch})
			defer s2.Close()
			// The intact prefix of the torn batch survives...
			if got := s2.Len(); got != 5 {
				t.Fatalf("Len after torn-batch recovery = %d, want 5", got)
			}
			for lid := uint64(1); lid <= 5; lid++ {
				r, err := s2.Get(lid)
				if err != nil {
					t.Fatalf("record %d lost: %v", lid, err)
				}
				if want := fmt.Sprintf("body-%d", lid); string(r.Body) != want {
					t.Errorf("record %d body = %q, want %q", lid, r.Body, want)
				}
			}
			// ...the torn record is gone, and its position is writable again.
			if _, err := s2.Get(6); !errors.Is(err, core.ErrNoSuchRecord) {
				t.Fatalf("Get(6) after tear = %v, want ErrNoSuchRecord", err)
			}
			if err := s2.Append(rec(6)); err != nil {
				t.Fatalf("rewriting torn position: %v", err)
			}
			s2.Close()

			// The rewrite itself must be durable across another reopen.
			s3 := openSeg(t, dir, SegmentStoreOptions{})
			defer s3.Close()
			if got := s3.Len(); got != 6 {
				t.Fatalf("Len after rewrite+reopen = %d, want 6", got)
			}
			if r, err := s3.Get(6); err != nil || string(r.Body) != "body-6" {
				t.Errorf("rewritten record 6 = %v, %v", r, err)
			}
		})
	}
}

func TestSegmentStoreGCWholeSegments(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{MaxSegmentBytes: 200})
	for lid := uint64(1); lid <= 40; lid++ {
		s.Append(rec(lid))
	}
	removed, err := s.GC(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("GC removed nothing despite full segments below frontier")
	}
	// Records above the frontier survive.
	for lid := uint64(21); lid <= 40; lid++ {
		if _, err := s.Get(lid); err != nil {
			t.Fatalf("record %d lost by GC: %v", lid, err)
		}
	}
	// Removed records are really gone.
	if _, err := s.Get(1); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("Get(1) after GC = %v, want ErrNoSuchRecord", err)
	}
	s.Close()

	// Reopen must tolerate the removed segments.
	s2 := openSeg(t, dir, SegmentStoreOptions{})
	defer s2.Close()
	if _, err := s2.Get(40); err != nil {
		t.Errorf("record 40 lost after GC+reopen: %v", err)
	}
}

func TestSegmentStoreEmptyDirOpens(t *testing.T) {
	s := openSeg(t, t.TempDir(), SegmentStoreOptions{})
	defer s.Close()
	if s.Len() != 0 || s.MaxLId() != 0 {
		t.Error("fresh store not empty")
	}
}

func TestSegmentStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, "junk.seg"), []byte("nonnumeric"), 0o644)
	s := openSeg(t, dir, SegmentStoreOptions{})
	defer s.Close()
	if s.Len() != 0 {
		t.Error("foreign files contaminated recovery")
	}
}

func TestSegmentStoreDoubleCloseIdempotent(t *testing.T) {
	s := openSeg(t, t.TempDir(), SegmentStoreOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
