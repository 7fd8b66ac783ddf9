package flstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ratelimit"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// follower returns maintainer 1 of a 3-maintainer/R=3 deployment: it owns
// range 1 and follows ranges 0 and 2, so reads of range 0 exercise the
// non-owner invalidation paths.
func follower(t *testing.T, readBlockWait time.Duration) *Maintainer {
	t.Helper()
	return followerWith(t, MaintainerConfig{readBlockWait: readBlockWait})
}

// followerWith is follower with the rest of cfg (store, limiter) set: range
// 0's positions are LIds 1, 2, 7, 8, ...
func followerWith(t *testing.T, cfg MaintainerConfig) *Maintainer {
	t.Helper()
	cfg.Index, cfg.Placement, cfg.Replication = 1, Placement{NumMaintainers: 3, BatchSize: 2}, 3
	m, err := NewMaintainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInvalidateBlocksReads pins the watermark invariant at one member:
// a position is absent until announced, invalid (retryable) once announced,
// and locally served the moment its payload resolves.
func TestInvalidateBlocksReads(t *testing.T) {
	m := follower(t, -1) // fail blocked reads immediately; no parking
	// Unannounced: the legacy absent semantics.
	if _, err := m.Read(1); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Fatalf("unannounced read = %v, want ErrNoSuchRecord", err)
	}
	// Announce range 0's positions 1..2 (bound 3, exclusive).
	if err := m.Invalidate(0, 3); err != nil {
		t.Fatal(err)
	}
	_, err := m.Read(1)
	if !errors.Is(err, ErrReadBlocked) {
		t.Fatalf("announced read = %v, want ErrReadBlocked", err)
	}
	if !IsRetryable(err) || RetryAfter(err) <= 0 {
		t.Errorf("blocked read not retryable with hint: retryable=%v hint=%v", IsRetryable(err), RetryAfter(err))
	}
	if m.LocalReadBlocks.Value() != 1 {
		t.Errorf("LocalReadBlocks = %d, want 1", m.LocalReadBlocks.Value())
	}
	// A different range is untouched by the announcement.
	if _, err := m.Read(3); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("other-range read = %v, want ErrNoSuchRecord", err)
	}
	// Payload lands: the read is served locally.
	if err := m.ReplicaAppend([]*core.Record{{LId: 1, Body: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	rec, err := m.Read(1)
	if err != nil || string(rec.Body) != "a" {
		t.Fatalf("resolved read = %v, %v; want body %q", rec, err, "a")
	}
	if m.LocalReadHits.Value() == 0 {
		t.Error("LocalReadHits did not advance on a locally served read")
	}
	// Watermark: position 1 resolved, position 2 still announced-only.
	wm, ann, err := m.ValidityWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 2 || ann != 7 {
		t.Errorf("watermark/announced = %d/%d, want 2/7 (bound 3 normalizes to frontier 7)", wm, ann)
	}
	m.mu.Lock()
	backlog := m.invalBacklogLocked(0)
	m.mu.Unlock()
	if backlog != 1 {
		t.Errorf("invalidation backlog = %d, want 1", backlog)
	}
	// Idempotent and monotone: re-announcing or announcing a stale bound
	// changes nothing.
	if err := m.Invalidate(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Invalidate(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, ann2, _ := m.ValidityWatermark(0); ann2 != ann {
		t.Errorf("announced bound moved on stale re-announcement: %d -> %d", ann, ann2)
	}
}

// TestSlotsBelow pins the slot-space normalization of announced bounds,
// including chunk and round boundaries of the round-robin placement.
func TestSlotsBelow(t *testing.T) {
	m := follower(t, 0)
	cases := []struct {
		rangeIdx int
		bound    uint64
		want     uint64
	}{
		{0, 0, 0}, {0, 1, 0}, // empty bounds
		{0, 2, 1},  // mid-chunk
		{0, 3, 2},  // exact chunk end
		{0, 5, 2},  // bound inside another range's chunk
		{0, 7, 2},  // up to the next round's first own position
		{0, 8, 3},  // into the next round
		{0, 9, 4},  // exact end of round-1 chunk
		{1, 3, 0},  // before this range's first chunk
		{1, 5, 2},  // exact own chunk end
		{2, 13, 4}, // two full rounds for the last range
	}
	for _, c := range cases {
		if got := slotsBelowP(m.cfg.Placement, c.rangeIdx, c.bound); got != c.want {
			t.Errorf("slotsBelow(range %d, bound %d) = %d, want %d", c.rangeIdx, c.bound, got, c.want)
		}
	}
}

// TestBlockedReadWakesOnArrival: a read parked on an invalidated position
// is released by the payload's arrival, not by the timeout.
func TestBlockedReadWakesOnArrival(t *testing.T) {
	m := follower(t, 2*time.Second)
	if err := m.Invalidate(0, 2); err != nil {
		t.Fatal(err)
	}
	type res struct {
		rec *core.Record
		err error
	}
	done := make(chan res, 1)
	go func() {
		rec, err := m.Read(1)
		done <- res{rec, err}
	}()
	time.Sleep(5 * time.Millisecond) // let the read park
	if err := m.ReplicaAppend([]*core.Record{{LId: 1, Body: []byte("late")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || string(r.rec.Body) != "late" {
			t.Fatalf("parked read = %v, %v; want body %q", r.rec, r.err, "late")
		}
	case <-time.After(time.Second):
		t.Fatal("parked read did not wake on payload arrival")
	}
	if m.LocalReadBlocks.Value() != 1 {
		t.Errorf("LocalReadBlocks = %d, want 1", m.LocalReadBlocks.Value())
	}
}

// copyOf builds a replica copy of the given positions.
func copyOf(lids ...uint64) []*core.Record {
	recs := make([]*core.Record, len(lids))
	for i, lid := range lids {
		recs[i] = &core.Record{LId: lid, TOId: lid, Body: []byte{byte(lid)}}
	}
	return recs
}

// expectRead checks what Read of each lid returns: the record, or an error
// matching want.
func expectRead(t *testing.T, m *Maintainer, want error, lids ...uint64) {
	t.Helper()
	for _, lid := range lids {
		rec, err := m.Read(lid)
		if want == nil && (err != nil || rec.LId != lid) {
			t.Errorf("Read(%d) = %v, %v; want the record", lid, rec, err)
		} else if want != nil && !errors.Is(err, want) {
			t.Errorf("Read(%d) = %v, want %v", lid, err, want)
		}
	}
}

// TestCopyAnnouncesItself: a replica copy is its own invalidation. While
// the copy's store write is held its positions read blocked, not absent,
// and the range's frontier has not moved; once the store returns they
// serve.
func TestCopyAnnouncesItself(t *testing.T) {
	g := newGate()
	m := followerWith(t, MaintainerConfig{Store: gatedStore{storage.NewMemStore(), g}, readBlockWait: -1})
	release := g.arm()
	done := make(chan error, 1)
	go func() { done <- m.ReplicaAppend(copyOf(1, 2)) }()
	<-g.entered
	expectRead(t, m, ErrReadBlocked, 1, 2)
	expectRead(t, m, core.ErrNoSuchRecord, 7)
	if f, err := m.RangeFrontier(0); err != nil || f != 1 {
		t.Errorf("RangeFrontier(0) with the copy held = %d, %v; want 1", f, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	expectRead(t, m, nil, 1, 2)
}

// TestRefusedCopyStaysAnnounced: the announcement lands before anything may
// refuse the copy, so the positions of a copy that admission sheds, or of
// one refused behind a failed commit tail, read blocked — the reader fails
// over — and never absent.
func TestRefusedCopyStaysAnnounced(t *testing.T) {
	t.Run("shed", func(t *testing.T) {
		m := followerWith(t, MaintainerConfig{Limiter: ratelimit.New(1, 1), readBlockWait: -1}) // a one-record budget
		if err := m.ReplicaAppend(copyOf(1, 2)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("copy over the limiter's budget = %v, want ErrOverloaded", err)
		}
		expectRead(t, m, ErrReadBlocked, 1, 2)
	})
	t.Run("behind-failed-tail", func(t *testing.T) {
		g := newGate()
		m := followerWith(t, MaintainerConfig{Store: gatedStore{storage.NewMemStore(), g}, readBlockWait: -1})
		fault := errors.New("injected store fault")
		g.fail <- fault // fails copy A's tail
		g.fail <- fault // and its re-run ahead of copy B
		if err := m.ReplicaAppend(copyOf(1, 2)); !errors.Is(err, fault) {
			t.Fatalf("copy A = %v, want the injected fault", err)
		}
		if err := m.ReplicaAppend(copyOf(7, 8)); !errors.Is(err, fault) {
			t.Fatalf("copy B behind the failed tail = %v, want it refused with the fault", err)
		}
		expectRead(t, m, ErrReadBlocked, 1, 2, 7, 8)
		expectRead(t, m, core.ErrNoSuchRecord, 13)
	})
}

// TestReadBlockedOverRPC: the blocked-read rejection survives the wire —
// the remote error maps back to a typed ReadBlockedError with its pacing
// hint, and the replica-session retry classification still applies. Also
// pins the under-acked append taxonomy satellite: a replica.AckError is
// retryable with a hint through the same flstore helpers.
func TestReadBlockedOverRPC(t *testing.T) {
	m := follower(t, -1)
	if err := m.Invalidate(0, 2); err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	ServeMaintainer(srv, m)
	mc := NewMaintainerClient(rpc.NewLocalClient(srv))
	_, err := mc.Read(1)
	if !errors.Is(err, ErrReadBlocked) {
		t.Fatalf("remote blocked read = %v, want ErrReadBlocked", err)
	}
	if !IsRetryable(err) {
		t.Error("remote blocked read not retryable")
	}
	if RetryAfter(err) != readBlockHint {
		t.Errorf("remote RetryAfter = %v, want %v", RetryAfter(err), readBlockHint)
	}
	// Remote invalidation surface: the client wrapper reaches Invalidate
	// and ValidityWatermark through the fast-path envelope. The session
	// discovers the capability exactly this way — by type assertion.
	inv, ok := mc.(replica.Invalidator)
	if !ok {
		t.Fatal("maintainer client does not implement replica.Invalidator")
	}
	if err := inv.Invalidate(0, 3); err != nil {
		t.Fatal(err)
	}
	wr, ok := mc.(replica.WatermarkReporter)
	if !ok {
		t.Fatal("maintainer client does not implement replica.WatermarkReporter")
	}
	wm, ann, err := wr.ValidityWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 1 || ann != 7 {
		t.Errorf("remote watermark/announced = %d/%d, want 1/7", wm, ann)
	}
	ackErr := &replica.AckError{Acked: 1, Required: 2, RetryAfter: 2 * time.Millisecond}
	if !IsRetryable(ackErr) || RetryAfter(ackErr) != 2*time.Millisecond {
		t.Errorf("AckError classification: retryable=%v hint=%v, want true/2ms", IsRetryable(ackErr), RetryAfter(ackErr))
	}
}
