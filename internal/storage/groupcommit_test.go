package storage

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// fsyncGate is a blocking FsyncHook: every fsync announces itself on
// entered and then waits for the gate to open. Until open is called the
// store's first fsync stays "on the disk", so a test decides exactly which
// batches land while it runs; once open, every later fsync passes through.
type fsyncGate struct {
	entered chan struct{}
	gate    chan struct{}
}

func newFsyncGate() *fsyncGate {
	// entered is sized past any test's fsync count so the hook never
	// blocks on the announcement itself.
	return &fsyncGate{entered: make(chan struct{}, 1024), gate: make(chan struct{})}
}

func (g *fsyncGate) hook() {
	g.entered <- struct{}{}
	<-g.gate
}

func (g *fsyncGate) open() { close(g.gate) }

// waitFor spins (yielding, never sleeping) until cond holds; the deadline
// only turns a hang into a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// appendAsync runs one single-record AppendBatch on its own goroutine and
// delivers the outcome on the returned channel.
func appendAsync(s *SegmentStore, lid uint64) <-chan error {
	res := make(chan error, 1)
	go func() { res <- s.AppendBatch([]*core.Record{rec(lid)}) }()
	return res
}

// durablePolicies are the two policies under which AppendBatch returns
// durable; the contracts they share are tested over both.
var durablePolicies = []struct {
	name string
	sync SyncPolicy
}{{"each", SyncEachBatch}, {"group", SyncGroupCommit}}

func reopenLen(t *testing.T, dir string) int {
	t.Helper()
	s := openSeg(t, dir, SegmentStoreOptions{})
	defer s.Close()
	return s.Len()
}

// TestGroupCommitNextFsyncCoversLanded pins the covered-position rule:
// batch A finds the disk idle and syncs at once; B and C land while A's
// fsync runs and are both covered by the next one. 3 batches, exactly 2
// fsyncs, and the group histograms see one observation per fsync.
func TestGroupCommitNextFsyncCoversLanded(t *testing.T) {
	g := newFsyncGate()
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncGroupCommit, FsyncHook: g.hook})
	reg := metrics.NewRegistry()
	s.EnableMetrics(reg)

	a := appendAsync(s, 1)
	<-g.entered // A is the leader, inside its fsync
	b := appendAsync(s, 2)
	c := appendAsync(s, 3)
	waitFor(t, "B and C to land", func() bool { return s.Len() == 3 })
	select {
	case err := <-a:
		t.Fatalf("A returned (%v) before its fsync completed", err)
	default:
	}
	g.open()
	for i, res := range []<-chan error{a, b, c} {
		if err := <-res; err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if n := s.FsyncCount(); n != 2 {
		t.Fatalf("fsyncs = %d, want exactly 2 (A alone, then B+C together)", n)
	}
	if n, sum := s.winWaitersH.Count(), s.winWaitersH.Sum(); n != 2 || sum != 3 {
		t.Fatalf("storage_commit_window_waiters: %d observations summing to %v, want 2 summing to 3", n, sum)
	}
	_, diskBytes := s.DiskStats()
	if n, sum := s.winBytesH.Count(), s.winBytesH.Sum(); n != 2 || sum != float64(diskBytes) {
		t.Fatalf("storage_commit_window_bytes: %d observations summing to %v, want 2 summing to %d", n, sum, diskBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.FsyncCount(); n != 2 {
		t.Fatalf("fsyncs after Close = %d, want 2 (nothing left uncovered to seal)", n)
	}
	if got := reopenLen(t, dir); got != 3 {
		t.Fatalf("recovered Len = %d, want 3", got)
	}
}

// TestLoneBatchesOneFsyncEach: a lone caller never waits for company. N
// sequential batches cost exactly N fsyncs under both durable policies —
// one per batch as it returns, none added by the seal path although the
// tiny segment size rotates on nearly every batch — and survive reopen.
func TestLoneBatchesOneFsyncEach(t *testing.T) {
	for _, pol := range durablePolicies {
		t.Run(pol.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openSeg(t, dir, SegmentStoreOptions{Sync: pol.sync, MaxSegmentBytes: 64})
			const batches = 10
			for lid := uint64(1); lid <= batches; lid++ {
				if err := s.Append(rec(lid)); err != nil {
					t.Fatal(err)
				}
				if n := s.FsyncCount(); n != lid {
					t.Fatalf("fsyncs after %d returned batches = %d", lid, n)
				}
			}
			if segs, _ := s.DiskStats(); segs < 3 {
				t.Fatalf("expected several rotations, got %d segments", segs)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := s.FsyncCount(); n != batches {
				t.Fatalf("fsyncs = %d, want exactly %d (one per batch, none at seal)", n, batches)
			}
			if got := reopenLen(t, dir); got != batches {
				t.Fatalf("recovered Len = %d, want %d", got, batches)
			}
		})
	}
}

// TestGroupCommitFsyncBudget is the tier-1 fsync-collapse budget: 64
// concurrent appenders against a disk that takes a few milliseconds per
// fsync must complete with at most 8 physical fsyncs. Per-batch fsync
// would spend 64; here the disk's own latency is the group window.
func TestGroupCommitFsyncBudget(t *testing.T) {
	const appenders = 64
	s := openSeg(t, t.TempDir(), SegmentStoreOptions{
		Sync:      SyncGroupCommit,
		FsyncHook: func() { time.Sleep(5 * time.Millisecond) }, // the injected disk, not a wait
	})
	defer s.Close()

	start := make(chan struct{})
	var ready, done sync.WaitGroup
	errs := make([]error, appenders)
	for i := 0; i < appenders; i++ {
		i := i
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			errs[i] = s.AppendBatch([]*core.Record{rec(uint64(i + 1))})
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", i, err)
		}
	}
	if got := s.Len(); got != appenders {
		t.Fatalf("Len = %d, want %d", got, appenders)
	}
	if n := s.FsyncCount(); n == 0 || n > 8 {
		t.Fatalf("%d concurrent appends issued %d fsyncs, budget is 1..8", appenders, n)
	}
}

// TestGroupCommitCloseDuringFsync: Close arriving while a group fsync is
// in flight refuses new appends at once, waits the fsync out, and covers
// the batch that landed behind it — nobody hangs, nothing is lost.
func TestGroupCommitCloseDuringFsync(t *testing.T) {
	g := newFsyncGate()
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncGroupCommit, FsyncHook: g.hook})

	a := appendAsync(s, 1)
	<-g.entered
	b := appendAsync(s, 2)
	waitFor(t, "B to land", func() bool { return s.Len() == 2 })
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close marks the store closed and parks on the fsync under one hold
	// of mu, so once closed is visible it is waiting.
	waitFor(t, "Close to park behind the fsync", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	if err := s.Append(rec(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close began: %v, want ErrClosed", err)
	}
	g.open()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, res := range []<-chan error{a, b} {
		if err := <-res; err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// A's fsync, then one more for B: B's own or the seal's, never both.
	if n := s.FsyncCount(); n != 2 {
		t.Fatalf("fsyncs = %d, want 2", n)
	}
	if got := reopenLen(t, dir); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
}

// TestGroupCommitRotationDuringFsync: a batch that must rotate while a
// group fsync is in flight on the old file waits it out instead of closing
// the file under it; every batch returns durable and survives reopen.
func TestGroupCommitRotationDuringFsync(t *testing.T) {
	g := newFsyncGate()
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{
		Sync:            SyncGroupCommit,
		MaxSegmentBytes: 16, // the first batch fills the segment: the next must rotate
		FsyncHook:       g.hook,
	})
	a := appendAsync(s, 1)
	<-g.entered
	b := appendAsync(s, 2) // parks in the rotation wait: A's fsync holds the file
	select {
	case err := <-b:
		t.Fatalf("B returned (%v) while the old file's fsync was still in flight", err)
	case <-g.entered:
		t.Fatal("a second fsync started while the first was in flight")
	default:
	}
	if segs, _ := s.DiskStats(); segs != 1 {
		t.Fatalf("segments = %d during A's fsync, want 1 (rotation must wait)", segs)
	}
	g.open()
	for i, res := range []<-chan error{a, b} {
		if err := <-res; err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if segs, _ := s.DiskStats(); segs != 2 {
		t.Fatalf("segments = %d, want 2", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.FsyncCount(); n != 2 {
		t.Fatalf("fsyncs = %d, want 2 (one per file, none at seal)", n)
	}
	if got := reopenLen(t, dir); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
}

// TestGroupCommitRotationMidStream: concurrent appenders over tiny
// segments, so rotations, seals and group fsyncs interleave every way the
// scheduler (and -race) can find; every record lands durably and readable.
func TestGroupCommitRotationMidStream(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncGroupCommit, MaxSegmentBytes: 256})
	var wg sync.WaitGroup
	const goroutines, perG = 8, 25
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lid := uint64(g*perG + i + 1)
				if err := s.Append(rec(lid)); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	total := goroutines * perG
	if got := s.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	segs, _ := s.DiskStats()
	if segs < 2 {
		t.Fatalf("expected rotation, got %d segments", segs)
	}
	if n := s.FsyncCount(); n > uint64(total) {
		t.Fatalf("fsyncs = %d for %d batches: more than one per batch", n, total)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openSeg(t, dir, SegmentStoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != total {
		t.Fatalf("recovered Len = %d, want %d", got, total)
	}
	for lid := uint64(1); lid <= uint64(total); lid++ {
		if _, err := s2.Get(lid); err != nil {
			t.Fatalf("Get(%d) after recovery: %v", lid, err)
		}
	}
}

// TestGroupCommitRejectsAfterClose: appends racing Close either commit
// durably or fail with ErrClosed — never hang, never a third outcome — and
// exactly the ones that reported success are there after reopen.
func TestGroupCommitRejectsAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir, SegmentStoreOptions{Sync: SyncGroupCommit})
	var wg sync.WaitGroup
	outcomes := make([]error, 32)
	start := make(chan struct{})
	for i := range outcomes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			outcomes[i] = s.Append(rec(uint64(i + 1)))
		}()
	}
	close(start)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	stored := 0
	for i, err := range outcomes {
		switch {
		case err == nil:
			stored++
		case !errors.Is(err, ErrClosed):
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
	}
	if got := reopenLen(t, dir); got != stored {
		t.Fatalf("recovered Len = %d, want the %d acknowledged", got, stored)
	}
}

// TestGroupCommitDuplicateRejectedImmediately: validation errors surface
// before any write or fsync.
func TestGroupCommitDuplicateRejectedImmediately(t *testing.T) {
	s := openSeg(t, t.TempDir(), SegmentStoreOptions{Sync: SyncGroupCommit})
	defer s.Close()
	if err := s.Append(rec(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(7)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate append: %v", err)
	}
	if n := s.FsyncCount(); n != 1 {
		t.Fatalf("fsyncs = %d, want 1 (the duplicate must not sync)", n)
	}
}

// TestFsyncErrorIsSticky: once an fsync fails the store is poisoned. The
// batch in the failed fsync and the batch that landed behind it both get
// the error; re-running the same batch (what the maintainer's commit tail
// does) gets that error again, not ErrDuplicate; no later append is
// accepted and no further fsync is attempted, even though the disk has
// "recovered" — a second fsync succeeding after a failed one proves
// nothing about the pages the first one lost.
func TestFsyncErrorIsSticky(t *testing.T) {
	errDisk := errors.New("injected disk failure")
	for _, pol := range durablePolicies {
		t.Run(pol.name, func(t *testing.T) {
			g := newFsyncGate()
			s := openSeg(t, t.TempDir(), SegmentStoreOptions{Sync: pol.sync, FsyncHook: g.hook})
			var syncs int
			s.syncFile = func(f *os.File) error {
				if syncs++; syncs == 1 {
					return errDisk
				}
				return f.Sync()
			}
			a := appendAsync(s, 1)
			<-g.entered
			var b <-chan error
			if pol.sync == SyncGroupCommit {
				// Under SyncEachBatch the fsync holds mu: nothing can land.
				b = appendAsync(s, 2)
				waitFor(t, "B to land", func() bool { return s.Len() == 2 })
			}
			g.open()
			if err := <-a; !errors.Is(err, errDisk) {
				t.Fatalf("batch in the failed fsync: %v, want the disk error", err)
			}
			if b != nil {
				if err := <-b; !errors.Is(err, errDisk) {
					t.Fatalf("batch behind the failed fsync: %v, want the disk error", err)
				}
			}
			for _, lid := range []uint64{1, 2, 3} {
				if err := s.Append(rec(lid)); !errors.Is(err, errDisk) {
					t.Fatalf("Append(%d) after the failed fsync: %v, want the disk error", lid, err)
				}
			}
			if err := s.Close(); !errors.Is(err, errDisk) {
				t.Fatalf("Close after the failed fsync: %v, want the disk error", err)
			}
			if n := s.FsyncCount(); n != 1 {
				t.Fatalf("fsyncs = %d, want 1: nothing syncs after the failure", n)
			}
		})
	}
}
