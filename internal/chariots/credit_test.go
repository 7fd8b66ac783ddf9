package chariots

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/rpc"
)

func TestCreditGateBounds(t *testing.T) {
	g := newCreditGate(4)
	if !g.acquire(3) {
		t.Fatal("acquire(3) on empty gate failed")
	}
	if g.tryAcquire(2) {
		t.Fatal("tryAcquire(2) admitted past the 4-credit bound")
	}
	if _, _, _, sheds := g.snapshot(); sheds != 2 {
		t.Fatalf("sheds = %d, want 2 (records)", sheds)
	}

	// A blocked acquire proceeds once credits come back.
	done := make(chan struct{})
	go func() {
		g.acquire(2)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("acquire(2) did not block at 3/4 in use")
	case <-time.After(20 * time.Millisecond):
	}
	g.release(3)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("release did not wake the blocked acquire")
	}

	inUse, maxInUse, waits, _ := g.snapshot()
	if inUse != 2 || maxInUse != 3 || waits != 1 {
		t.Fatalf("snapshot = inUse %d maxInUse %d waits %d, want 2, 3, 1", inUse, maxInUse, waits)
	}
}

func TestCreditGateOversizedBatch(t *testing.T) {
	g := newCreditGate(4)
	// A batch larger than the whole capacity must be admitted when the
	// pipeline is empty (progress over deadlock), and counted.
	if !g.acquire(10) {
		t.Fatal("oversized batch deadlocked on an empty gate")
	}
	g.release(10)
	if !g.tryAcquire(10) {
		t.Fatal("oversized tryAcquire refused on an empty gate")
	}
}

func TestCreditGateCloseWakesBlockers(t *testing.T) {
	g := newCreditGate(1)
	if !g.acquire(1) {
		t.Fatal("acquire failed")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	ok := true
	go func() {
		defer wg.Done()
		ok = g.acquire(1)
	}()
	time.Sleep(10 * time.Millisecond)
	g.close()
	wg.Wait()
	if ok {
		t.Fatal("acquire returned true after close")
	}
}

func TestCountingOnlyGateNeverBlocks(t *testing.T) {
	g := newCreditGate(0)
	for i := 0; i < 100; i++ {
		if !g.tryAcquire(1 << 10) {
			t.Fatal("counting-only gate refused records")
		}
	}
	if inUse, maxInUse, _, _ := func() (int, int, uint64, uint64) { return g.snapshot() }(); inUse != 100<<10 || maxInUse != 100<<10 {
		t.Fatalf("counting-only gate lost count: inUse %d maxInUse %d", inUse, maxInUse)
	}
}

// TestShedPolicyEndToEnd saturates a tiny-credit pipeline whose maintainer
// stage is rate-capped and verifies ingress sheds with the typed,
// retryable, hint-carrying error — and that credits drain back to zero once
// the pipeline empties (no leaks).
func TestShedPolicyEndToEnd(t *testing.T) {
	dc, err := New(Config{
		Self:             0,
		NumDCs:           1,
		PipelineCredits:  64,
		ShedOnSaturation: true,
		Rates:            StageRates{Maintainer: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()

	var shedErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		recs := make([]*core.Record, 16)
		for i := range recs {
			recs[i] = &core.Record{Host: 0, Body: []byte("x")}
		}
		if err := dc.TryInject(recs); err != nil {
			shedErr = err
			break
		}
	}
	if shedErr == nil {
		t.Fatal("no shed rejection while flooding a 64-credit pipeline")
	}
	if !errors.Is(shedErr, ErrPipelineSaturated) {
		t.Fatalf("shed error = %v, want ErrPipelineSaturated", shedErr)
	}
	if !flstore.IsRetryable(shedErr) {
		t.Fatalf("shed error %v not retryable via flstore.IsRetryable", shedErr)
	}
	if d := flstore.RetryAfter(shedErr); d <= 0 {
		t.Fatalf("shed error hint = %v, want > 0", d)
	}
	if stats := dc.CreditStats(); stats.MaxInUse > 64 {
		t.Fatalf("in-flight high water %d exceeded the 64-credit bound", stats.MaxInUse)
	}

	// Every admitted record eventually applies and returns its credit.
	dc.Quiesce(50*time.Millisecond, 10*time.Second)
	waitUntil := time.Now().Add(5 * time.Second)
	for dc.CreditStats().InUse != 0 && time.Now().Before(waitUntil) {
		time.Sleep(5 * time.Millisecond)
	}
	if stats := dc.CreditStats(); stats.InUse != 0 {
		t.Fatalf("credits leaked: %d still in use after quiesce", stats.InUse)
	}
}

// TestAppendDepsShedRetryable verifies the waiting append surface under the
// shed policy: a rejection is typed, and flstore.Retry absorbs it.
func TestAppendDepsShedRetryable(t *testing.T) {
	dc, err := New(Config{
		Self:             0,
		NumDCs:           1,
		PipelineCredits:  32,
		ShedOnSaturation: true,
		Rates:            StageRates{Maintainer: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()

	// Fill the gate, then show Append* sheds and that a paced retry lands.
	deadline := time.Now().Add(5 * time.Second)
	sawShed := false
	for time.Now().Before(deadline) && !sawShed {
		_, err := dc.Append([]byte("y"), nil)
		if err != nil {
			var sat *SaturationError
			if !errors.As(err, &sat) {
				t.Fatalf("Append error = %v, want *SaturationError", err)
			}
			sawShed = true
		}
	}
	if !sawShed {
		t.Skip("pipeline drained faster than the generator; shed not reachable on this machine")
	}
	if _, err := flstore.Retry(50, func() (AppendAck, error) {
		return dc.Append([]byte("z"), nil)
	}); err != nil {
		t.Fatalf("flstore.Retry over shed policy = %v, want success", err)
	}
}

// TestMapIngestError: the ingest endpoint's errors reach the remote caller
// as themselves — the shed rejection typed and with its hint, shutdown as
// its sentinel — and an error the table does not list is left alone.
func TestMapIngestError(t *testing.T) {
	var fail error // the LocalClient serves on the calling goroutine
	srv := rpc.NewServer()
	rowIngest.Serve(srv, rpc.NoReply(func([]*core.Record) error { return fail }))
	ic := NewIngestClient(rpc.NewLocalClient(srv))
	if err := ic.Append(nil); err != nil {
		t.Fatalf("nil → %v", err)
	}
	fail = &SaturationError{RetryAfter: 2 * time.Millisecond}
	err := ic.Append(nil)
	var sat *SaturationError
	if !errors.As(err, &sat) {
		t.Fatalf("mapped = %v, want *SaturationError", err)
	}
	if sat.RetryAfter != 2*time.Millisecond {
		t.Fatalf("hint = %v, want 2ms", sat.RetryAfter)
	}
	if !flstore.IsRetryable(err) || flstore.RetryAfter(err) != 2*time.Millisecond {
		t.Fatalf("remote shed: retryable %v after %v, want true after 2ms", flstore.IsRetryable(err), flstore.RetryAfter(err))
	}
	fail = ErrStopped
	if got := ic.Append(nil); !errors.Is(got, ErrStopped) {
		t.Fatalf("stopped mapping = %v, want ErrStopped", got)
	}
	fail = errors.New("unrelated")
	if got := ic.Append(nil); !rpc.IsRemote(got) || got.Error() != "unrelated" || errors.Unwrap(got) != nil {
		t.Fatalf("unrelated error rewritten: %v", got)
	}
}
