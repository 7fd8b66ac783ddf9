package flstore_test

// Taxonomy tests live outside the package so they can cover the
// cross-package contract: chariots' ingress-shed error classifying through
// flstore.IsRetryable / RetryAfter without an import cycle.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/ratelimit"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
)

func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"overloaded sentinel", flstore.ErrOverloaded, true},
		{"typed overload", &flstore.OverloadError{RetryAfter: time.Millisecond}, true},
		{"wrapped overload", fmt.Errorf("append: %w", flstore.ErrOverloaded), true},
		{"order backlog", flstore.ErrOrderBacklog, true},
		{"past head", core.ErrPastHead, true},
		{"insufficient acks", replica.ErrInsufficientAcks, true},
		{"chariots saturation", &chariots.SaturationError{RetryAfter: time.Millisecond}, true},
		{"wrong maintainer", flstore.ErrWrongMaintainer, false},
		{"not replica", flstore.ErrNotReplica, false},
		{"no such record", core.ErrNoSuchRecord, false},
		{"plain error", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := flstore.IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRetryAfterExtraction(t *testing.T) {
	if d := flstore.RetryAfter(&flstore.OverloadError{RetryAfter: 5 * time.Millisecond}); d != 5*time.Millisecond {
		t.Errorf("typed hint = %v, want 5ms", d)
	}
	wrapped := fmt.Errorf("append: %w", &chariots.SaturationError{RetryAfter: 3 * time.Millisecond})
	if d := flstore.RetryAfter(wrapped); d != 3*time.Millisecond {
		t.Errorf("wrapped hint = %v, want 3ms", d)
	}
	if d := flstore.RetryAfter(flstore.ErrOverloaded); d != 0 {
		t.Errorf("bare sentinel hint = %v, want 0", d)
	}
	if d := flstore.RetryAfter(nil); d != 0 {
		t.Errorf("nil hint = %v, want 0", d)
	}
}

// TestOverloadHintRoundTripRPC drives an overload rejection through the
// real wire path: maintainer → rpc server → client stub. The typed error
// must come back retryable with its hint intact.
func TestOverloadHintRoundTripRPC(t *testing.T) {
	p := flstore.Placement{NumMaintainers: 1, BatchSize: 100}
	m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
		Index:     0,
		Placement: p,
		Limiter:   ratelimit.New(10, 1), // one-record budget, slow refill
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	flstore.ServeMaintainer(srv, m)
	api := flstore.NewMaintainerClient(rpc.NewLocalClient(srv))

	// Burst past the one-token budget until the limiter rejects.
	var rejection error
	for i := 0; i < 10; i++ {
		if _, err := api.Append([]*core.Record{{Body: []byte("x")}}); err != nil {
			rejection = err
			break
		}
	}
	if rejection == nil {
		t.Fatal("no overload rejection after bursting a 1-token budget")
	}
	if !errors.Is(rejection, flstore.ErrOverloaded) {
		t.Fatalf("rejection = %v, want ErrOverloaded", rejection)
	}
	if !flstore.IsRetryable(rejection) {
		t.Fatalf("rejection %v not classified retryable", rejection)
	}
	if d := flstore.RetryAfter(rejection); d <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0 (hint lost across the wire)", d)
	}
}

// errorAtLId serves Read by failing with errs[lid]: a maintainer whose only
// behaviour is the error under test.
type errorAtLId struct {
	flstore.MaintainerAPI
	errs []error
}

func (m errorAtLId) Read(lid uint64) (*core.Record, error) { return nil, m.errs[lid] }

// TestErrorRowsKeepIdentity sends every row of the two error tables, typed
// and wrapped forms alike, through a handler and asks the questions callers
// ask — errors.Is against every sentinel, errors.As for every typed form and
// what it carries, IsRetryable, RetryAfter — of the error itself, of what a
// LocalClient returns and of what comes back over TCP. The three must agree.
// One case carries another sentinel's text inside its own: matching on text
// filed it under the wrong sentinel.
func TestErrorRowsKeepIdentity(t *testing.T) {
	sentinels := []error{
		core.ErrNoSuchRecord, core.ErrPastHead, flstore.ErrOverloaded, flstore.ErrOrderBacklog,
		flstore.ErrWrongMaintainer, flstore.ErrNotReplica, flstore.ErrEpochSealed, flstore.ErrReadBlocked,
		storage.ErrDuplicate, storage.ErrCorrupt, replica.ErrInsufficientAcks, core.ErrUnencodable,
		chariots.ErrPipelineSaturated, chariots.ErrStopped,
	}
	errs := []error{
		core.ErrNoSuchRecord,
		fmt.Errorf("%w: LId 40 > head 12", core.ErrPastHead),
		&flstore.OverloadError{}, // what a bare ErrOverloaded comes back as: typed, no hint
		&flstore.OverloadError{RetryAfter: 3 * time.Millisecond},
		fmt.Errorf("append: %w", &flstore.OverloadError{RetryAfter: time.Millisecond}),
		flstore.ErrOrderBacklog,
		fmt.Errorf("%w: LId 7", flstore.ErrWrongMaintainer),
		fmt.Errorf("%w: range 4", flstore.ErrNotReplica),
		fmt.Errorf("%w: peer said %q", flstore.ErrNotReplica, core.ErrNoSuchRecord.Error()),
		&flstore.EpochSealedError{FirstLId: 4097},
		&flstore.ReadBlockedError{LId: 12, RetryAfter: 2 * time.Millisecond},
		fmt.Errorf("%w: LId 3", storage.ErrDuplicate),
		fmt.Errorf("%w: entry at 108", storage.ErrCorrupt),
		replica.ErrInsufficientAcks,
		fmt.Errorf("%w: tag with a 70000-byte key", core.ErrUnencodable),
		&chariots.SaturationError{RetryAfter: time.Millisecond},
		&chariots.SaturationError{},
		chariots.ErrStopped,
		errors.New("disk on fire"),
	}
	srv := rpc.NewServer()
	flstore.ServeMaintainer(srv, errorAtLId{errs: errs})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := rpc.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// describe is everything a caller can learn from an error but its text.
	describe := func(err error) string {
		var b strings.Builder
		for _, s := range sentinels {
			fmt.Fprintf(&b, "%v ", errors.Is(err, s))
		}
		var ov *flstore.OverloadError
		var sealed *flstore.EpochSealedError
		var blocked *flstore.ReadBlockedError
		var sat *chariots.SaturationError
		if errors.As(err, &ov) {
			fmt.Fprintf(&b, "overload %v ", ov.RetryAfter)
		}
		if errors.As(err, &sealed) {
			fmt.Fprintf(&b, "sealed %d ", sealed.FirstLId)
		}
		if errors.As(err, &blocked) {
			fmt.Fprintf(&b, "blocked %d %v ", blocked.LId, blocked.RetryAfter)
		}
		if errors.As(err, &sat) {
			fmt.Fprintf(&b, "saturated %v ", sat.RetryAfter)
		}
		fmt.Fprintf(&b, "retryable %v after %v", flstore.IsRetryable(err), flstore.RetryAfter(err))
		return b.String()
	}
	for i, local := range errs {
		want := describe(local)
		for name, c := range map[string]rpc.Client{"LocalClient": rpc.NewLocalClient(srv), "TCP": conn} {
			_, got := flstore.NewMaintainerClient(c).Read(uint64(i))
			if got == nil || !rpc.IsRemote(got) || got.Error() != local.Error() {
				t.Errorf("%v over %s came back as %v", local, name, got)
				continue
			}
			if d := describe(got); d != want {
				t.Errorf("%v over %s:\n got %s\nwant %s", local, name, d, want)
			}
		}
	}
}

func TestRetryHelper(t *testing.T) {
	attempts := 0
	v, err := flstore.Retry(5, func() (int, error) {
		attempts++
		if attempts < 3 {
			return 0, &flstore.OverloadError{RetryAfter: time.Microsecond}
		}
		return 42, nil
	})
	if err != nil || v != 42 || attempts != 3 {
		t.Fatalf("Retry = %d, %v after %d attempts; want 42, nil, 3", v, err, attempts)
	}

	// Non-retryable errors surface immediately.
	attempts = 0
	_, err = flstore.Retry(5, func() (int, error) {
		attempts++
		return 0, flstore.ErrWrongMaintainer
	})
	if !errors.Is(err, flstore.ErrWrongMaintainer) || attempts != 1 {
		t.Fatalf("Retry on fatal = %v after %d attempts; want ErrWrongMaintainer, 1", err, attempts)
	}

	// Retries exhausted: the last error surfaces.
	attempts = 0
	_, err = flstore.Retry(2, func() (int, error) {
		attempts++
		return 0, &flstore.OverloadError{}
	})
	if !errors.Is(err, flstore.ErrOverloaded) || attempts != 3 {
		t.Fatalf("Retry exhausted = %v after %d attempts; want ErrOverloaded, 3", err, attempts)
	}
}
