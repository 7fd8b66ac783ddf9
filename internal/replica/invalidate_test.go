package replica

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// invalidatingFake is a fakeMember that also records invalidation
// announcements, standing in for a maintainer that implements the
// optional Invalidator/WatermarkReporter surface.
type invalidatingFake struct {
	*fakeMember
	mu    sync.Mutex
	bound map[int]uint64 // rangeIdx -> highest announced assignment bound
}

func newInvalidatingFake(idx int, l Layout) *invalidatingFake {
	return &invalidatingFake{fakeMember: newFakeMember(idx, l), bound: map[int]uint64{}}
}

func (f *invalidatingFake) Invalidate(rangeIdx int, upTo uint64) error {
	if err := f.gate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if upTo > f.bound[rangeIdx] {
		f.bound[rangeIdx] = upTo
	}
	return nil
}

// ReplicaAppend is the copy announcing itself, as the maintainer's does:
// each record's range learns the bound past it before the copy is stored.
// A down member receives nothing.
func (f *invalidatingFake) ReplicaAppend(recs []*core.Record) error {
	f.fakeMember.mu.Lock()
	down := f.down
	f.fakeMember.mu.Unlock()
	f.mu.Lock()
	for _, r := range recs {
		if rangeIdx := int((r.LId - 1) % uint64(f.layout.N)); !down && r.LId+1 > f.bound[rangeIdx] {
			f.bound[rangeIdx] = r.LId + 1
		}
	}
	f.mu.Unlock()
	return f.fakeMember.ReplicaAppend(recs)
}

func (f *invalidatingFake) ValidityWatermark(rangeIdx int) (uint64, uint64, error) {
	if err := f.gate(); err != nil {
		return 0, 0, err
	}
	f.fakeMember.mu.Lock()
	wm := f.lidOfSlot(rangeIdx, f.frontier[rangeIdx])
	f.fakeMember.mu.Unlock()
	f.mu.Lock()
	ann := f.bound[rangeIdx]
	f.mu.Unlock()
	if ann < wm {
		ann = wm
	}
	return wm, ann, nil
}

// TestAppendBroadcastsInvalidations: every invalidation-capable follower
// learns the assigned bound from the copy itself. The fan-out sends no
// separate announcement: one R = 3 append makes exactly three member calls,
// the primary's append and one copy per follower.
func TestAppendBroadcastsInvalidations(t *testing.T) {
	l := Layout{N: 3, R: 3}
	fakes := make([]*invalidatingFake, 3)
	members := make([]Member, 3)
	for i := range fakes {
		fakes[i] = newInvalidatingFake(i, l)
		members[i] = fakes[i]
	}
	s, err := NewSession(members, SessionConfig{
		Layout: l,
		Ack:    AckAll,
		Owner:  func(lid uint64) int { return int((lid - 1) % 3) },
	})
	if err != nil {
		t.Fatal(err)
	}
	lids, err := s.Append([]*core.Record{{Body: []byte("a")}, {Body: []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	upTo := lids[len(lids)-1] + 1
	// Both followers of the range the batch went to learned the bound from
	// the copy; the acting primary itself is not re-announced to.
	r := int((lids[0] - 1) % 3)
	for _, i := range []int{(r + 1) % 3, (r + 2) % 3} {
		fakes[i].mu.Lock()
		got := fakes[i].bound[r]
		fakes[i].mu.Unlock()
		if got != upTo {
			t.Errorf("member %d announced bound = %d, want %d", i, got, upTo)
		}
	}
	calls := 0
	for _, f := range fakes {
		f.fakeMember.mu.Lock()
		calls += f.calls
		f.fakeMember.mu.Unlock()
	}
	if calls != 3 {
		t.Errorf("one replicated append made %d member calls, want 3 (no Invalidate)", calls)
	}
}

// TestCatchUpReplaysInvalidations: after a catch-up converges, the target
// learns the peer's announced bound so positions assigned-but-unresolved
// elsewhere stay invalid rather than reading as absent.
func TestCatchUpReplaysInvalidations(t *testing.T) {
	l := Layout{N: 2, R: 2}
	fakes := []*invalidatingFake{newInvalidatingFake(0, l), newInvalidatingFake(1, l)}
	s, err := NewSession([]Member{fakes[0], fakes[1]}, SessionConfig{
		Layout: l,
		Ack:    AckAll,
		Owner:  func(lid uint64) int { return int((lid - 1) % 2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]*core.Record{{Body: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	// The peer knows of assignments past what it stores.
	if err := fakes[1].Invalidate(0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := CatchUpRange(fakes[0], fakes[1], 0, 0); err != nil {
		t.Fatal(err)
	}
	_ = s // the session only wires the fakes; the replay is member-to-member
	fakes[0].mu.Lock()
	got := fakes[0].bound[0]
	fakes[0].mu.Unlock()
	if got != 9 {
		t.Errorf("catch-up target bound = %d, want 9 replayed from peer", got)
	}
}

func TestReadPolicyPicks(t *testing.T) {
	l := Layout{N: 3, R: 3}
	owner := OwnerFirst()
	for k, want := range []int{1, 2, 0} {
		if got := owner.Pick(l, 1, k, 42); got != want {
			t.Errorf("OwnerFirst.Pick(range 1, k=%d) = %d, want %d", k, got, want)
		}
	}
	spread := SpreadReads()
	// token rotates the starting member; the failover walk still covers
	// the whole group exactly once.
	for token := uint64(0); token < 3; token++ {
		seen := map[int]bool{}
		for k := 0; k < l.R; k++ {
			seen[spread.Pick(l, 0, k, token)] = true
		}
		if len(seen) != 3 {
			t.Errorf("SpreadReads token %d covered %d members, want 3", token, len(seen))
		}
	}
	if a, b := spread.Pick(l, 0, 0, 1), spread.Pick(l, 0, 0, 2); a == b {
		t.Error("SpreadReads did not rotate the first pick across tokens")
	}
	near, err := NearestFirst(l, func(m int) int { return []int{10, 0, 5}[m] })
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []int{1, 2, 0} {
		if got := near.Pick(l, 0, k, 7); got != want {
			t.Errorf("NearestFirst.Pick(range 0, k=%d) = %d, want %d", k, got, want)
		}
	}
	// Equal costs: the owner wins the tie so the default stays local.
	flat, err := NearestFirst(l, func(int) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.Pick(l, 2, 0, 0); got != 2 {
		t.Errorf("NearestFirst flat-cost first pick = %d, want owner 2", got)
	}
}

func TestAckErrorClassification(t *testing.T) {
	err := &AckError{Acked: 1, Required: 2, Range: 0, RetryAfter: 2 * time.Millisecond}
	if !errors.Is(err, ErrInsufficientAcks) {
		t.Error("AckError does not unwrap to ErrInsufficientAcks")
	}
	if !err.Retryable() {
		t.Error("AckError not retryable")
	}
	if err.RetryAfterHint() != 2*time.Millisecond {
		t.Errorf("RetryAfterHint = %v, want 2ms", err.RetryAfterHint())
	}
}

// TestSessionUnderAckedAppendReturnsTypedError: an under-acked append
// surfaces the typed AckError (with pacing hint) rather than a bare
// sentinel, so flstore.IsRetryable/RetryAfter can classify it.
func TestSessionUnderAckedAppendReturnsTypedError(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckAll, 10)
	fakes[1].setDown(true)
	fakes[2].setDown(true)
	_, err := s.Append([]*core.Record{{Body: []byte("x")}})
	var ae *AckError
	if !errors.As(err, &ae) {
		t.Fatalf("append error = %v, want *AckError", err)
	}
	if ae.Acked != 1 || ae.Required != 3 || ae.RetryAfter <= 0 {
		t.Errorf("AckError = %+v, want acked 1 of 3 with a pacing hint", ae)
	}
}
