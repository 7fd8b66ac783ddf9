package replica

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// flakyMember rejects the first N ReplicaAppend calls with a transient,
// hint-carrying admission error, then behaves like its embedded fake.
type flakyMember struct {
	*fakeMember
	mu      sync.Mutex
	rejects int
	seen    int
}

type testOverload struct{ hint time.Duration }

func (e *testOverload) Error() string                 { return "test: follower overloaded" }
func (e *testOverload) Retryable() bool               { return true }
func (e *testOverload) RetryAfterHint() time.Duration { return e.hint }

func (f *flakyMember) ReplicaAppend(recs []*core.Record) error {
	f.mu.Lock()
	f.seen++
	reject := f.seen <= f.rejects
	f.mu.Unlock()
	if reject {
		return &testOverload{hint: time.Millisecond}
	}
	return f.fakeMember.ReplicaAppend(recs)
}

// TestFanOutRetriesTransientOverload: a follower shedding one copy under
// load is retried after its pacing hint — the append still fully acks and
// the member is NOT treated as failed (no eviction progress).
func TestFanOutRetriesTransientOverload(t *testing.T) {
	l := Layout{N: 3, R: 3}
	fakes := make([]*fakeMember, 3)
	members := make([]Member, 3)
	for i := range fakes {
		fakes[i] = newFakeMember(i, l)
		members[i] = fakes[i]
	}
	flaky := &flakyMember{fakeMember: fakes[1], rejects: 1}
	members[1] = flaky

	s, err := NewSession(members, SessionConfig{
		Layout:     l,
		Ack:        AckAll, // a lost follower ack would fail the append
		Owner:      func(lid uint64) int { return int((lid - 1) % 3) },
		EvictAfter: 1, // a single failure report would evict
		IsRetryable: func(err error) bool {
			var m interface{ Retryable() bool }
			return errors.As(err, &m) && m.Retryable()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Range 0, which member 1 follows.
	lids, err := s.AppendRange(0, []*core.Record{{Body: []byte("a")}})
	if err != nil {
		t.Fatalf("Append with one transient follower shed = %v, want nil", err)
	}
	if len(lids) != 1 {
		t.Fatalf("lids = %v, want 1", lids)
	}
	if got := s.fanoutRetries.Value(); got < 1 {
		t.Fatalf("fanoutRetries = %d, want >= 1", got)
	}
	if !s.health.Usable(1) {
		t.Fatal("member evicted after a retryable overload rejection")
	}
	// The copy actually landed on the flaky member via the retry.
	if _, err := fakes[1].Read(lids[0]); err != nil {
		t.Fatalf("record missing on retried follower: %v", err)
	}
}

// TestFanOutRetryExhaustedDoesNotEvict: even when the single retry also
// sheds, overload still must not count toward eviction — the member is
// loaded, not dead. With AckMajority the append still succeeds on 2/3.
func TestFanOutRetryExhaustedDoesNotEvict(t *testing.T) {
	l := Layout{N: 3, R: 3}
	fakes := make([]*fakeMember, 3)
	members := make([]Member, 3)
	for i := range fakes {
		fakes[i] = newFakeMember(i, l)
		members[i] = fakes[i]
	}
	flaky := &flakyMember{fakeMember: fakes[1], rejects: 1 << 30}
	members[1] = flaky

	s, err := NewSession(members, SessionConfig{
		Layout:     l,
		Ack:        AckMajority,
		Owner:      func(lid uint64) int { return int((lid - 1) % 3) },
		EvictAfter: 1,
		IsRetryable: func(err error) bool {
			var m interface{ Retryable() bool }
			return errors.As(err, &m) && m.Retryable()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.AppendRange(0, []*core.Record{{Body: []byte("a")}}); err != nil {
		t.Fatalf("quorum append = %v, want nil (2 of 3 acks)", err)
	}
	if s.fanoutFailures.Value() < 1 {
		t.Fatalf("fanoutFailures = %d, want >= 1 (retry exhausted)", s.fanoutFailures.Value())
	}
	if !s.health.Usable(1) {
		t.Fatal("overloaded member evicted; overload must not count as failure")
	}
}
