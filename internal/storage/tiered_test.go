package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func openTiered(t *testing.T, dir string, opts SegmentStoreOptions) *TieredStore {
	t.Helper()
	s, err := OpenTieredStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fullRec(lid uint64) *core.Record {
	return &core.Record{
		LId:  lid,
		TOId: lid * 3,
		Host: core.DCID(lid % 5),
		Tags: []core.Tag{{Key: "t", Value: fmt.Sprintf("v-%d", lid%7)}},
		Deps: []core.Dep{{DC: 1, TOId: lid}},
		Body: []byte(fmt.Sprintf("body-%d-%s", lid, strings.Repeat("x", int(lid%50)))),
	}
}

func encodeAll(t *testing.T, recs []*core.Record) [][]byte {
	t.Helper()
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = core.AppendRecord(nil, r)
	}
	return out
}

// TestTieredBoundaryReadsByteIdentical is the hot/cold transparency bar:
// a scan and point reads spanning the compaction boundary must return
// byte-identical records before and after the prefix moves to the cold
// tier. Runs with concurrent appends so -race exercises the tier handoff.
func TestTieredBoundaryReadsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, SegmentStoreOptions{
		Sync:            SyncGroupCommit,
		MaxSegmentBytes: 1024, // several sealed segments below the watermark
	})
	defer s.Close()

	const total = 120
	for lid := uint64(1); lid <= total; lid++ {
		if err := s.Append(fullRec(lid)); err != nil {
			t.Fatal(err)
		}
	}

	readAll := func() []*core.Record {
		var got []*core.Record
		if err := s.Scan(0, 0, func(r *core.Record) bool {
			got = append(got, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	before := readAll()
	if len(before) != total {
		t.Fatalf("pre-compaction scan returned %d records, want %d", len(before), total)
	}
	beforeBytes := encodeAll(t, before)

	// Compact the first half while appenders keep the hot tier moving.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lid := uint64(total + 1); lid <= total+40; lid++ {
			if err := s.Append(fullRec(lid)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const boundary = total / 2
	n, err := s.Compact(boundary)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n != boundary {
		t.Fatalf("Compact archived %d records, want %d", n, boundary)
	}
	if s.Cold().Volumes() == 0 {
		t.Fatal("no archive volume written")
	}
	if got := s.Compacted(); got != boundary {
		t.Fatalf("Compacted = %d, want %d", got, boundary)
	}

	after := readAll()
	if len(after) != total+40 {
		t.Fatalf("post-compaction scan returned %d records, want %d", len(after), total+40)
	}
	afterBytes := encodeAll(t, after[:total])
	for i := range beforeBytes {
		if !bytes.Equal(beforeBytes[i], afterBytes[i]) {
			t.Fatalf("record %d differs across the hot/cold boundary:\n pre %x\npost %x",
				before[i].LId, beforeBytes[i], afterBytes[i])
		}
	}

	// Point reads on both sides of the boundary, and the boundary itself.
	for _, lid := range []uint64{1, boundary - 1, boundary, boundary + 1, total} {
		r, err := s.Get(lid)
		if err != nil {
			t.Fatalf("Get(%d): %v", lid, err)
		}
		want := core.AppendRecord(nil, fullRec(lid))
		if got := core.AppendRecord(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) not byte-identical across tiers", lid)
		}
	}

	// A bounded scan that starts cold and ends hot.
	var span []uint64
	if err := s.Scan(boundary-5, boundary+5, func(r *core.Record) bool {
		span = append(span, r.LId)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(span) != 11 {
		t.Fatalf("boundary span returned %d records, want 11 (%v)", len(span), span)
	}
	for i, lid := range span {
		if lid != boundary-5+uint64(i) {
			t.Fatalf("boundary span out of order: %v", span)
		}
	}
}

// TestTieredSurvivesReopen: compaction state (watermark, counts, both
// tiers) must recover from disk alone.
func TestTieredSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, SegmentStoreOptions{Sync: SyncEachBatch, MaxSegmentBytes: 512})
	for lid := uint64(1); lid <= 60; lid++ {
		if err := s.Append(fullRec(lid)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(30); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTiered(t, dir, SegmentStoreOptions{Sync: SyncEachBatch, MaxSegmentBytes: 512})
	defer s2.Close()
	if got := s2.Compacted(); got != 30 {
		t.Fatalf("recovered watermark = %d, want 30", got)
	}
	if got := s2.Len(); got != 60 {
		t.Fatalf("recovered Len = %d, want 60", got)
	}
	for lid := uint64(1); lid <= 60; lid++ {
		want := core.AppendRecord(nil, fullRec(lid))
		r, err := s2.Get(lid)
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", lid, err)
		}
		if got := core.AppendRecord(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("record %d not byte-identical after reopen", lid)
		}
	}
	if got := s2.MaxLId(); got != 60 {
		t.Fatalf("recovered MaxLId = %d, want 60", got)
	}
}

// TestTieredCountsHotTierFromIndex: the count of live hot records, taken at
// open and after every Compact, comes from the index alone. With every
// sealed hot segment's bytes replaced by garbage the store still opens with
// Len exact, and neither the open nor a recount opens a segment file.
func TestTieredCountsHotTierFromIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, SegmentStoreOptions{MaxSegmentBytes: 512})
	for lid := uint64(1); lid <= 60; lid++ {
		if err := s.Append(fullRec(lid)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(30); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "hot", "*"+segmentSuffix))
	if len(segs) < 3 {
		t.Fatalf("only %d hot segments", len(segs))
	}
	scribble(t, segs[:len(segs)-1])
	s2 := openTiered(t, dir, SegmentStoreOptions{MaxSegmentBytes: 512})
	defer s2.Close()
	if got := s2.Len(); got != 60 {
		t.Fatalf("Len = %d, want 60", got)
	}
	if got := s2.hot.lenAbove(45); got != 15 {
		t.Fatalf("lenAbove(45) = %d, want 15", got)
	}
	for _, h := range s2.hot.handles {
		if h != nil {
			t.Fatalf("counting the hot tier opened %s", h.seg.path)
		}
	}
}

// TestTieredCrashMidCompaction kills the process (simulated at the file
// level) between the archive Put starting and completing: recovery must
// discard the torn volume and read the exact same record set from the
// surviving hot segments.
func TestTieredCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, SegmentStoreOptions{Sync: SyncEachBatch, MaxSegmentBytes: 512})
	const total = 50
	for lid := uint64(1); lid <= total; lid++ {
		if err := s.Append(fullRec(lid)); err != nil {
			t.Fatal(err)
		}
	}
	var wantBytes [][]byte
	if err := s.Scan(0, 0, func(r *core.Record) bool {
		wantBytes = append(wantBytes, core.AppendRecord(nil, r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge the crash remnants a mid-compaction kill leaves behind. The
	// compaction protocol is: write volume to .tmp, fsync, rename, THEN
	// GC the hot tier. A kill in the middle leaves either (a) a stale
	// .tmp spool, or (b) a renamed but torn volume — and in both cases
	// the hot tier untouched. Build (b) by archiving to a scratch
	// archive, truncating the volume mid-entry, and planting it in the
	// real cold dir; plant a stale .tmp alongside.
	scratch := t.TempDir()
	sc, err := OpenArchive(scratch)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := OpenSegmentStore(filepath.Join(dir, "hot"), SegmentStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []*core.Record
	if err := hs.Scan(1, 25, func(r *core.Record) bool {
		batch = append(batch, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Put(batch); err != nil {
		t.Fatal(err)
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	vols, err := filepath.Glob(filepath.Join(scratch, "*"+archiveSuffix))
	if err != nil || len(vols) != 1 {
		t.Fatalf("scratch volumes: %v %v", vols, err)
	}
	raw, err := os.ReadFile(vols[0])
	if err != nil {
		t.Fatal(err)
	}
	coldDir := filepath.Join(dir, "cold")
	if err := os.MkdirAll(coldDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Torn mid-entry: cut the volume off partway through its bytes.
	torn := filepath.Join(coldDir, filepath.Base(vols[0]))
	if err := os.WriteFile(torn, raw[:len(raw)-len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(coldDir, filepath.Base(vols[0])+".tmp")
	if err := os.WriteFile(stale, raw[:16], 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery: torn volume discarded, .tmp removed, full record set
	// still served from the hot tier.
	s2 := openTiered(t, dir, SegmentStoreOptions{Sync: SyncEachBatch, MaxSegmentBytes: 512})
	defer s2.Close()
	if got := s2.Cold().Volumes(); got != 0 {
		t.Fatalf("torn volume survived recovery: %d volumes", got)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn volume file still on disk: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale .tmp still on disk: %v", err)
	}
	if got := s2.Compacted(); got != 0 {
		t.Fatalf("watermark advanced past a discarded volume: %d", got)
	}
	var gotBytes [][]byte
	if err := s2.Scan(0, 0, func(r *core.Record) bool {
		gotBytes = append(gotBytes, core.AppendRecord(nil, r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotBytes) != total {
		t.Fatalf("recovered %d records, want %d", len(gotBytes), total)
	}
	for i := range wantBytes {
		if !bytes.Equal(wantBytes[i], gotBytes[i]) {
			t.Fatalf("record %d differs after crash recovery", i+1)
		}
	}
	// And the interrupted compaction simply re-runs.
	if n, err := s2.Compact(25); err != nil || n != 25 {
		t.Fatalf("re-run compaction: n=%d err=%v", n, err)
	}
	if got := s2.Len(); got != total {
		t.Fatalf("Len after re-compaction = %d, want %d", got, total)
	}
}

// TestTieredCorruptVolumeDiscarded: a CRC-corrupt (not merely torn)
// volume is also discarded at open.
func TestTieredCorruptVolumeDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, SegmentStoreOptions{Sync: SyncEachBatch, MaxSegmentBytes: 256})
	for lid := uint64(1); lid <= 30; lid++ {
		if err := s.Append(fullRec(lid)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(15); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	vols, err := filepath.Glob(filepath.Join(dir, "cold", "*"+archiveSuffix))
	if err != nil || len(vols) != 1 {
		t.Fatalf("volumes: %v %v", vols, err)
	}
	raw, err := os.ReadFile(vols[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(vols[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTiered(t, dir, SegmentStoreOptions{Sync: SyncEachBatch, MaxSegmentBytes: 256})
	defer s2.Close()
	if got := s2.Cold().Volumes(); got != 0 {
		t.Fatalf("corrupt volume survived recovery: %d volumes", got)
	}
	// Records 1..15 were GC'd from the hot tier after the (then-intact)
	// volume landed, so the corruption genuinely lost them — what must
	// NOT happen is serving corrupt bytes: reads fail cleanly instead.
	if _, err := s2.Get(1); err == nil {
		t.Fatal("Get(1) served a record from a corrupt volume")
	}
	for lid := uint64(16); lid <= 30; lid++ {
		if _, err := s2.Get(lid); err != nil {
			t.Fatalf("hot-tier Get(%d): %v", lid, err)
		}
	}
}
