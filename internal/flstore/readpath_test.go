package flstore

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// --- tail ring ---

func TestTailRingOverwriteReadsAsMiss(t *testing.T) {
	r := newTailRing(4)
	r.put([]*core.Record{{LId: 1}, {LId: 2}, {LId: 3}, {LId: 4}})
	for lid := uint64(1); lid <= 4; lid++ {
		if rec := r.get(lid); rec == nil || rec.LId != lid {
			t.Fatalf("get(%d) = %+v", lid, rec)
		}
	}
	// LId 5 lands on LId 1's slot (5 % 4 == 1 % 4): the old entry must
	// read as a miss, never as the wrong record.
	r.put([]*core.Record{{LId: 5}})
	if rec := r.get(1); rec != nil {
		t.Errorf("overwritten slot served stale record %+v", rec)
	}
	if rec := r.get(5); rec == nil || rec.LId != 5 {
		t.Errorf("get(5) = %+v", rec)
	}
	if rec := r.get(9); rec != nil {
		t.Errorf("never-written LId served %+v", rec)
	}
}

// --- maintainer TailWait ---

func TestMaintainerTailWaitImmediateAndTimeout(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 4)
	if _, err := m.Append([]*core.Record{{Body: []byte("a")}, {Body: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	// Frontier is 3 (two slots filled); a cursor below it returns at once.
	f, err := m.TailWait(0, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f != 3 {
		t.Fatalf("frontier = %d, want 3", f)
	}
	// cursor 0 never parks.
	if f, err = m.TailWait(0, 0, time.Second); err != nil || f != 3 {
		t.Fatalf("TailWait(0) = %d, %v", f, err)
	}
	// A cursor at the frontier parks until maxWait, then reports the
	// unchanged frontier without error.
	start := time.Now()
	f, err = m.TailWait(0, 3, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if f != 3 {
		t.Fatalf("timed-out frontier = %d, want 3", f)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("TailWait returned after %v, did not park", elapsed)
	}
	// A range this maintainer doesn't host fails.
	if _, err := m.TailWait(5, 1, time.Millisecond); err == nil {
		t.Error("TailWait on unhosted range accepted")
	}
}

func TestMaintainerTailWaitWakesOnAppend(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 4)
	if _, err := m.Append([]*core.Record{{Body: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	type res struct {
		f   uint64
		err error
	}
	done := make(chan res, 1)
	go func() {
		f, err := m.TailWait(0, 2, 5*time.Second)
		done <- res{f, err}
	}()
	// Give the waiter time to park, then append: the waiter must wake
	// well before its 5s maxWait.
	time.Sleep(5 * time.Millisecond)
	if _, err := m.Append([]*core.Record{{Body: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.f != 3 {
			t.Errorf("woken frontier = %d, want 3", r.f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TailWait did not wake on append")
	}
	if m.TailWaits.Value() == 0 {
		t.Error("TailWaits counter not incremented")
	}
}

// --- maintainer ReadRange ---

func TestMaintainerReadRangeBudgetsAndResume(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 100)
	var recs []*core.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, &core.Record{Body: []byte(fmt.Sprintf("r%d", i))})
	}
	if _, err := m.Append(recs); err != nil {
		t.Fatal(err)
	}
	// A record-count budget truncates the response and CoveredHi says
	// where; the continuation from CoveredHi+1 fetches the remainder.
	res, err := m.ReadRange(RangeQuery{Lo: 1, Hi: 20, Range: 0, MaxRecords: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 7 || res.CoveredHi != 7 {
		t.Fatalf("budgeted response: %d records, CoveredHi %d", len(res.Records), res.CoveredHi)
	}
	var got []*core.Record
	got = append(got, res.Records...)
	for res.CoveredHi < 20 {
		if res, err = m.ReadRange(RangeQuery{Lo: res.CoveredHi + 1, Hi: 20, Range: 0, MaxRecords: 7}); err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Records...)
	}
	if len(got) != 20 {
		t.Fatalf("continuation collected %d records", len(got))
	}
	for i, r := range got {
		if r.LId != uint64(i+1) {
			t.Fatalf("record %d has LId %d", i, r.LId)
		}
	}
	// A byte budget truncates too.
	res, err = m.ReadRange(RangeQuery{Lo: 1, Hi: 20, Range: 0, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.CoveredHi != 1 {
		t.Fatalf("byte-budgeted response: %d records, CoveredHi %d", len(res.Records), res.CoveredHi)
	}
	// Reads past the frontier stop at it: the response covers what exists.
	res, err = m.ReadRange(RangeQuery{Lo: 15, Hi: 500, Range: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 || res.CoveredHi != 20 {
		t.Fatalf("frontier-cut response: %d records, CoveredHi %d", len(res.Records), res.CoveredHi)
	}
	// A range this maintainer doesn't host fails.
	if _, err := m.ReadRange(RangeQuery{Lo: 1, Hi: 5, Range: 3}); err == nil {
		t.Error("ReadRange on unhosted range accepted")
	}
}

func TestMaintainerReadRangeSkipsForeignBlocks(t *testing.T) {
	// Two maintainers, R=1: maintainer 0 hosts only its own round-robin
	// blocks; a whole-log query against it must report the foreign blocks
	// as covered (they're trivially not here) and return only owned
	// records.
	c, ms := buildDirect(t, 2, 0, 3)
	for i := 0; i < 12; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ms[0].ReadRange(RangeQuery{Lo: 1, Hi: 12, Range: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredHi != 12 {
		t.Fatalf("CoveredHi = %d, want 12", res.CoveredHi)
	}
	p := Placement{NumMaintainers: 2, BatchSize: 3}
	for _, r := range res.Records {
		if p.Owner(r.LId) != 0 {
			t.Errorf("maintainer 0 served foreign LId %d", r.LId)
		}
	}
	if len(res.Records) != 6 {
		t.Fatalf("owned records = %d, want 6", len(res.Records))
	}
}

func TestMaintainerReadRangeColdServesFromStore(t *testing.T) {
	// A tail cache smaller than the log forces ring misses on old
	// positions; the store scan must fill them, bounded per block.
	p := Placement{NumMaintainers: 1, BatchSize: 100}
	m, err := NewMaintainer(MaintainerConfig{Index: 0, Placement: p, tailCacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*core.Record
	for i := 0; i < 32; i++ {
		recs = append(recs, &core.Record{Body: []byte(fmt.Sprintf("r%d", i))})
	}
	if _, err := m.Append(recs); err != nil {
		t.Fatal(err)
	}
	res, err := m.ReadRange(RangeQuery{Lo: 1, Hi: 32, Range: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 32 || res.CoveredHi != 32 {
		t.Fatalf("cold read: %d records, CoveredHi %d", len(res.Records), res.CoveredHi)
	}
	if m.StoreScans.Value() == 0 {
		t.Error("cold read did not hit the store")
	}
}

// --- maintainer MultiRead ---

func TestMaintainerMultiRead(t *testing.T) {
	c, ms := buildDirect(t, 2, 0, 2)
	for i := 0; i < 8; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Maintainer 0 owns blocks [1,2] and [5,6].
	recs, err := ms[0].MultiRead([]uint64{5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LId != 5 || recs[1].LId != 1 || recs[2].LId != 2 {
		t.Fatalf("MultiRead order = %+v", recs)
	}
	// Hosted but not yet stored positions are silently absent.
	recs, err = ms[0].MultiRead([]uint64{1, 101})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LId != 1 {
		t.Fatalf("absent position not skipped: %+v", recs)
	}
	// Foreign positions and LId 0 fail loudly (client routing bug).
	if _, err := ms[0].MultiRead([]uint64{3}); err == nil {
		t.Error("foreign LId accepted")
	}
	if _, err := ms[0].MultiRead([]uint64{0}); err == nil {
		t.Error("LId 0 accepted")
	}
}

// --- client batched reads ---

func TestClientReadRangeMergesByPlacement(t *testing.T) {
	c, _ := buildDirect(t, 3, 0, 2)
	want := make(map[uint64]string)
	for i := 0; i < 25; i++ {
		body := fmt.Sprintf("r%d", i)
		lid, err := c.Append([]byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[lid] = body
	}
	head, _ := c.HeadExact()
	recs, err := c.ReadRange(1, 0) // hi 0 = head
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != head {
		t.Fatalf("ReadRange returned %d records, head %d", len(recs), head)
	}
	for i, r := range recs {
		if r.LId != uint64(i+1) {
			t.Fatalf("position %d holds LId %d", i, r.LId)
		}
		if string(r.Body) != want[r.LId] {
			t.Errorf("LId %d body = %q, want %q", r.LId, r.Body, want[r.LId])
		}
	}
	// Sub-windows and clamping.
	recs, err = c.ReadRange(5, 9)
	if err != nil || len(recs) != 5 || recs[0].LId != 5 || recs[4].LId != 9 {
		t.Fatalf("ReadRange(5,9) = %d recs, %v", len(recs), err)
	}
	if recs, err = c.ReadRange(head+1, head+10); err != nil || len(recs) != 0 {
		t.Fatalf("past-head range = %d recs, %v", len(recs), err)
	}
}

func TestClientReadLIdsPreservesInputOrder(t *testing.T) {
	c, _ := buildDirect(t, 3, 0, 2)
	var lids []uint64
	for i := 0; i < 18; i++ {
		lid, err := c.Append([]byte(fmt.Sprintf("r%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	// Shuffled, cross-maintainer, with a duplicate.
	ask := []uint64{17, 2, 9, 2, 13, 1, 6}
	recs, err := c.ReadLIds(ask)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ask) {
		t.Fatalf("got %d records for %d lids", len(recs), len(ask))
	}
	for i, lid := range ask {
		if recs[i] == nil || recs[i].LId != lid {
			t.Fatalf("slot %d = %+v, want LId %d", i, recs[i], lid)
		}
	}
}

func TestClientReadRangeOwnedPartitions(t *testing.T) {
	const n = 3
	c, _ := buildDirect(t, n, 0, 2)
	for i := 0; i < 20; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	head, _ := c.HeadExact()
	p := Placement{NumMaintainers: n, BatchSize: 2}
	seen := make(map[uint64]bool)
	for owner := 0; owner < n; owner++ {
		recs, err := c.ReadRangeOwned(owner, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var prev uint64
		for _, r := range recs {
			if p.Owner(r.LId) != owner {
				t.Errorf("partition %d returned foreign LId %d", owner, r.LId)
			}
			if r.LId <= prev {
				t.Errorf("partition %d not ascending: %d after %d", owner, r.LId, prev)
			}
			prev = r.LId
			if seen[r.LId] {
				t.Errorf("LId %d returned by two partitions", r.LId)
			}
			seen[r.LId] = true
		}
	}
	if uint64(len(seen)) != head {
		t.Errorf("partitions covered %d of %d positions", len(seen), head)
	}
	if _, err := c.ReadRangeOwned(n, 1, 0); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

// --- tail subscription ---

// collectTail tails the log from LId 1 in a goroutine and sends each
// record's LId on the returned channel; cancel stops it.
func collectTail(t *testing.T, c *Client, ctx context.Context) <-chan uint64 {
	t.Helper()
	out := make(chan uint64, 1024)
	go func() {
		defer close(out)
		_ = c.Tail(ctx, 1, func(r *core.Record) bool {
			select {
			case out <- r.LId:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}

// TestTailZeroFullScansAfterCatchUp is the acceptance check for the
// push-style tail: once a tailing reader has caught up to the head, further
// records reach it in order from the tail rings — the subscription path
// serves from range reads (ring or bounded store scans), never a full-log
// rescan. This is the instrumented replacement for the old poll-loop Tail,
// which rescanned every maintainer each tick.
func TestTailZeroFullScansAfterCatchUp(t *testing.T) {
	c, ms := buildDirect(t, 3, 0, 2)
	const warm, live = 60, 40
	for i := 0; i < warm; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("w%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := collectTail(t, c, ctx)

	next := uint64(1)
	deadline := time.After(5 * time.Second)
	recv := func(n uint64) {
		for next <= n {
			select {
			case lid, ok := <-got:
				if !ok {
					t.Fatal("tail stopped early")
				}
				if lid != next {
					t.Fatalf("tail delivered LId %d, want %d (gap or duplicate)", lid, next)
				}
				next++
			case <-deadline:
				t.Fatalf("timed out waiting for LId %d", next)
			}
		}
	}
	head, _ := c.HeadExact()
	recv(head) // catch-up complete

	// From here on the tail is a subscription.
	for i := 0; i < live; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("l%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	head, _ = c.HeadExact()
	recv(head)
	// The live window is served from the tail rings.
	hits := uint64(0)
	for _, m := range ms {
		hits += m.TailCacheHits.Value()
	}
	if hits == 0 {
		t.Error("no tail-cache hits while tailing at the frontier")
	}
	cancel()
}

// TestTailSurvivesMaintainerKillMidStream pins the failover behaviour of
// the subscription tail under replication: severing the client's link to
// one maintainer mid-stream must not lose, duplicate, or reorder a single
// position — range reads and tail waits fail over to the surviving members
// of the owning group.
func TestTailSurvivesMaintainerKillMidStream(t *testing.T) {
	const n, r = 3, 3
	p := Placement{NumMaintainers: n, BatchSize: 2}
	ctl := faultinject.New(faultinject.Options{Seed: 11})
	ms := make([]*Maintainer, n)
	srvs := make([]*rpc.Server, n)
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: r})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		ms[i], srvs[i] = m, srv
	}
	wire := func(i int) MaintainerAPI {
		return NewMaintainerClient(ctl.Wrap(fmt.Sprintf("c->m%d", i), rpc.NewLocalClient(srvs[i])))
	}
	client, err := NewReplicatedDirectClient(p, []MaintainerAPI{wire(0), wire(1), wire(2)}, nil, r, replica.AckMajority)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got := collectTail(t, client, ctx)

	appendN := func(tag string, count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if _, err := client.Append([]byte(fmt.Sprintf("%s-%d", tag, i)), nil); err != nil {
				t.Fatalf("append %s-%d: %v", tag, i, err)
			}
		}
	}
	next := uint64(1)
	deadline := time.After(15 * time.Second)
	recv := func(n uint64) {
		for next <= n {
			select {
			case lid, ok := <-got:
				if !ok {
					t.Fatalf("tail stopped early at %d", next)
				}
				if lid != next {
					t.Fatalf("tail delivered LId %d, want %d (gap or duplicate)", lid, next)
				}
				next++
			case <-deadline:
				t.Fatalf("timed out waiting for LId %d", next)
			}
		}
	}

	// Appends distribute across ranges, so the gap-free head (what Tail
	// guarantees) is what HeadExact reports, not the append count.
	headNow := func() uint64 {
		t.Helper()
		h, err := client.HeadExact()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	appendN("pre", 12)
	preHead := headNow()
	recv(preHead) // the tail is mid-stream, caught up to the pre-kill head

	// Kill maintainer 1's link while the tail is live. Ack-majority
	// appends keep succeeding; the tail's range reads and long-polls for
	// range 1 fail over to the survivors.
	ctl.Sever("c->m1")
	appendN("during", 18)
	duringHead := headNow()
	if duringHead <= preHead {
		t.Fatalf("head did not advance under failover: %d -> %d", preHead, duringHead)
	}
	recv(duringHead)
	if st := client.Session().Health().State(1); st != replica.Evicted {
		t.Fatalf("maintainer 1 state after kill = %v, want evicted", st)
	}

	// Heal and keep streaming: the tail never noticed beyond latency.
	ctl.Heal("c->m1")
	appendN("post", 10)
	recv(headNow())
	cancel()
}

func TestWaitHeadSubscribes(t *testing.T) {
	c, _ := buildDirect(t, 2, 0, 3)
	for i := 0; i < 4; i++ {
		if _, err := c.Append([]byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Already satisfied: returns immediately with the current head.
	head, err := c.WaitHead(2, time.Second)
	if err != nil || head < 2 {
		t.Fatalf("WaitHead(2) = %d, %v", head, err)
	}
	// Bounded wait on an unreached position returns the stale head.
	head, err = c.WaitHead(1000, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if head >= 1000 {
		t.Fatalf("head %d reached impossible target", head)
	}
	// A parked waiter wakes when appends push the head past its target.
	target := head + 3
	done := make(chan uint64, 1)
	go func() {
		h, _ := c.WaitHead(target, 5*time.Second)
		done <- h
	}()
	time.Sleep(2 * time.Millisecond)
	for i := uint64(0); i < 3; i++ {
		if _, err := c.Append([]byte("y"), nil); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case h := <-done:
		if h < target {
			t.Errorf("woken head = %d, want >= %d", h, target)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitHead did not wake on append")
	}
}

// --- wire codec ---

func FuzzDecodeRangeResult(f *testing.F) {
	seed := []*core.Record{
		{LId: 1, TOId: 1, Host: 0, Body: []byte("a")},
		{LId: 2, TOId: 2, Host: 1,
			Tags: []core.Tag{{Key: "stream", Value: "orders"}},
			Deps: []core.Dep{{DC: 0, TOId: 1}},
			Body: []byte("a body that is long enough to matter")},
	}
	full, _ := putRangeResult(nil, RangeResult{CoveredHi: 2, Records: seed})
	empty, _ := putRangeResult(nil, RangeResult{CoveredHi: 0})
	f.Add(full)
	f.Add(empty)
	f.Add(full[:7])           // short envelope
	f.Add(full[:len(full)-3]) // truncated final record
	f.Add(full[:12])          // count without records
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := getRangeResult(data, nil)
		if err != nil {
			return
		}
		// Accepted input round-trips canonically: re-encoding reproduces
		// the consumed prefix.
		re, _ := putRangeResult(nil, res)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-encoded response differs from consumed input")
		}
	})
}

func TestRangeResultRoundTrip(t *testing.T) {
	res := RangeResult{CoveredHi: 42, Records: []*core.Record{
		{LId: 41, TOId: 41, Host: 2, Body: []byte("x")},
		{LId: 42, TOId: 42, Host: 0, Tags: []core.Tag{{Key: "k", Value: "v"}}},
	}}
	enc, _ := putRangeResult(nil, res)
	dec, err := getRangeResult(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.CoveredHi != 42 || len(dec.Records) != 2 {
		t.Fatalf("decoded %+v", dec)
	}
	for i := range res.Records {
		if !reflect.DeepEqual(res.Records[i], dec.Records[i]) {
			t.Errorf("record %d: %+v vs %+v", i, res.Records[i], dec.Records[i])
		}
	}
}

// TestRangeReadOverRPC exercises the three new message types through the
// real codec path (server handlers + maintainerClient), not just the
// in-process structs.
func TestRangeReadOverRPC(t *testing.T) {
	p := Placement{NumMaintainers: 1, BatchSize: 100}
	m, err := NewMaintainer(MaintainerConfig{Index: 0, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	ServeMaintainer(srv, m)
	rr := NewMaintainerClient(rpc.NewLocalClient(srv))
	var recs []*core.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, &core.Record{Body: []byte(fmt.Sprintf("r%d", i)),
			Tags: []core.Tag{{Key: "k", Value: fmt.Sprint(i)}}})
	}
	if _, err := m.Append(recs); err != nil {
		t.Fatal(err)
	}
	res, err := rr.ReadRange(RangeQuery{Lo: 2, Hi: 8, Range: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 7 || res.CoveredHi != 8 {
		t.Fatalf("RPC range read: %d records, CoveredHi %d", len(res.Records), res.CoveredHi)
	}
	for i, r := range res.Records {
		if r.LId != uint64(i+2) || string(r.Body) != fmt.Sprintf("r%d", i+1) {
			t.Fatalf("record %d = LId %d body %q", i, r.LId, r.Body)
		}
	}
	multi, err := rr.MultiRead([]uint64{9, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 2 || multi[0].LId != 9 || multi[1].LId != 3 {
		t.Fatalf("RPC multi read = %+v", multi)
	}
	f, err := rr.TailWait(0, 1, time.Second)
	if err != nil || f != 11 {
		t.Fatalf("RPC TailWait = %d, %v", f, err)
	}
	// Error mapping: an unhosted range comes back as a remote error.
	if _, err := rr.ReadRange(RangeQuery{Lo: 1, Hi: 5, Range: 7}); err == nil {
		t.Error("RPC range read of unhosted range accepted")
	}
}
