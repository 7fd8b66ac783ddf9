package flstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ratelimit"
	"repro/internal/rpc"
	"repro/internal/storage"
)

func newTestMaintainer(t *testing.T, idx, n int, batch uint64) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(MaintainerConfig{
		Index:     idx,
		Placement: Placement{NumMaintainers: n, BatchSize: batch},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func bodyRec(s string) *core.Record { return &core.Record{Body: []byte(s)} }

func TestMaintainerPostAssignment(t *testing.T) {
	// Maintainer 1 of 3, batch 10: owns 11-20, 41-50, 71-80, ...
	m := newTestMaintainer(t, 1, 3, 10)
	var got []uint64
	for i := 0; i < 25; i++ {
		lids, err := m.Append([]*core.Record{bodyRec(fmt.Sprint(i))})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, lids...)
	}
	want := []uint64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 71, 72, 73, 74, 75}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assigned LIds = %v, want %v", got, want)
		}
	}
	if n, _ := m.NextUnfilled(); n != 76 {
		t.Errorf("NextUnfilled = %d, want 76", n)
	}
}

func TestMaintainerAppendSetsTOIdAndLId(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 100)
	r := bodyRec("x")
	lids, err := m.Append([]*core.Record{r})
	if err != nil {
		t.Fatal(err)
	}
	if r.LId != lids[0] || r.TOId != lids[0] {
		t.Errorf("record LId/TOId = %d/%d, want %d", r.LId, r.TOId, lids[0])
	}
}

func TestMaintainerAppendRejectsPreassigned(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 100)
	if _, err := m.Append([]*core.Record{{LId: 5, TOId: 5}}); err == nil {
		t.Error("Append accepted a record with an LId")
	}
}

func TestMaintainerIndexBounds(t *testing.T) {
	if _, err := NewMaintainer(MaintainerConfig{Index: 3, Placement: Placement{NumMaintainers: 3, BatchSize: 1}}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewMaintainer(MaintainerConfig{Index: -1, Placement: Placement{NumMaintainers: 3, BatchSize: 1}}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestMaintainerReadEnforcesHead(t *testing.T) {
	p := Placement{NumMaintainers: 2, BatchSize: 5}
	m0, _ := NewMaintainer(MaintainerConfig{Index: 0, Placement: p, EnforceHead: true})
	// Fill maintainer 0's first range (LIds 1-5).
	for i := 0; i < 5; i++ {
		m0.Append([]*core.Record{bodyRec("r")})
	}
	// m0 has heard nothing from m1, so head = min(11, 6) - 1 = 5.
	if h, _ := m0.Head(); h != 5 {
		t.Fatalf("Head = %d, want 5", h)
	}
	if _, err := m0.Read(3); err != nil {
		t.Errorf("Read below head failed: %v", err)
	}
	// Advance m0 into its second range; head still pinned by m1.
	for i := 0; i < 5; i++ {
		m0.Append([]*core.Record{bodyRec("r")})
	}
	if _, err := m0.Read(11); !errors.Is(err, core.ErrPastHead) {
		t.Errorf("Read past head = %v, want ErrPastHead", err)
	}
	// Gossip from m1 raises the head; the read now succeeds.
	// m1 filled 6-10, so its next owned position is 16.
	if _, _, err := m0.GossipVecs([]uint64{0, 16}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m0.Read(11); err != nil {
		t.Errorf("Read after gossip failed: %v", err)
	}
}

func TestMaintainerReadWrongOwner(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 5)
	if _, err := m.Read(6); !errors.Is(err, ErrWrongMaintainer) {
		t.Errorf("Read foreign LId = %v, want ErrWrongMaintainer", err)
	}
	if _, err := m.Read(0); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("Read(0) = %v, want ErrNoSuchRecord", err)
	}
}

func TestMaintainerAppendAssignedInOrder(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 3) // owns 1-3, 7-9, 13-15
	recs := []*core.Record{
		{LId: 1, TOId: 1}, {LId: 2, TOId: 2}, {LId: 3, TOId: 3}, {LId: 7, TOId: 4},
	}
	if err := m.AppendAssigned(recs); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.NextUnfilled(); n != 8 {
		t.Errorf("NextUnfilled = %d, want 8", n)
	}
	if m.Store().Len() != 4 {
		t.Errorf("stored %d, want 4", m.Store().Len())
	}
}

func TestMaintainerAppendAssignedOutOfOrderBuffered(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 3)
	// Slot 1 (LId 2) arrives before slot 0 (LId 1).
	if err := m.AppendAssigned([]*core.Record{{LId: 2, TOId: 2}}); err != nil {
		t.Fatal(err)
	}
	if m.Store().Len() != 0 {
		t.Fatal("out-of-order record stored before frontier reached it")
	}
	if m.PendingAssigned() != 1 {
		t.Fatalf("PendingAssigned = %d, want 1", m.PendingAssigned())
	}
	if n, _ := m.NextUnfilled(); n != 1 {
		t.Errorf("NextUnfilled = %d, want 1 (frontier must not jump the gap)", n)
	}
	if err := m.AppendAssigned([]*core.Record{{LId: 1, TOId: 1}}); err != nil {
		t.Fatal(err)
	}
	if m.Store().Len() != 2 || m.PendingAssigned() != 0 {
		t.Errorf("stored=%d pending=%d, want 2/0", m.Store().Len(), m.PendingAssigned())
	}
	if n, _ := m.NextUnfilled(); n != 3 {
		t.Errorf("NextUnfilled = %d, want 3", n)
	}
}

func TestMaintainerAppendAssignedRejectsForeignAndDuplicate(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 3)
	if err := m.AppendAssigned([]*core.Record{{LId: 4, TOId: 1}}); !errors.Is(err, ErrWrongMaintainer) {
		t.Errorf("foreign LId err = %v", err)
	}
	if err := m.AppendAssigned([]*core.Record{{LId: 1, TOId: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAssigned([]*core.Record{{LId: 1, TOId: 1}}); !errors.Is(err, storage.ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	if err := m.AppendAssigned([]*core.Record{{TOId: 1}}); err == nil {
		t.Error("record without LId accepted")
	}
}

func TestMaintainerAppendAfterImmediate(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 100)
	m.Append([]*core.Record{bodyRec("a")}) // LId 1
	lids, err := m.AppendAfter(0, []*core.Record{bodyRec("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(lids) != 1 || lids[0] != 2 {
		t.Errorf("AppendAfter lids = %v, want [2]", lids)
	}
}

func TestMaintainerAppendAfterBuffersUntilBoundPasses(t *testing.T) {
	// Maintainer 1 of 2, batch 5: owns 6-10, 16-20.
	m := newTestMaintainer(t, 1, 2, 5)
	// Constrain to LIds > 7; maintainer's next is 6, so buffer.
	lids, err := m.AppendAfter(7, []*core.Record{bodyRec("ordered")})
	if err != nil {
		t.Fatal(err)
	}
	if lids != nil {
		t.Fatalf("expected buffering, got lids %v", lids)
	}
	if m.OrderBuffered() != 1 {
		t.Fatalf("OrderBuffered = %d, want 1", m.OrderBuffered())
	}
	// Appends advance the frontier past 7; the buffered record releases.
	m.Append([]*core.Record{bodyRec("a"), bodyRec("b")}) // LIds 6,7 → next=8
	if m.OrderBuffered() != 0 {
		t.Fatalf("OrderBuffered = %d, want 0 after release", m.OrderBuffered())
	}
	// The released record must have an LId > 7.
	var found *core.Record
	m.Store().Scan(0, 0, func(r *core.Record) bool {
		if string(r.Body) == "ordered" {
			found = r
		}
		return true
	})
	if found == nil {
		t.Fatal("ordered record not stored after release")
	}
	if found.LId <= 7 {
		t.Errorf("ordered record LId = %d, want > 7", found.LId)
	}
}

func TestMaintainerAppendAfterBacklogBound(t *testing.T) {
	m, _ := NewMaintainer(MaintainerConfig{
		Index: 0, Placement: Placement{NumMaintainers: 1, BatchSize: 10},
		maxOrderBuffer: 2,
	})
	if _, err := m.AppendAfter(100, []*core.Record{bodyRec("a"), bodyRec("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendAfter(100, []*core.Record{bodyRec("c")}); !errors.Is(err, ErrOrderBacklog) {
		t.Errorf("backlog err = %v, want ErrOrderBacklog", err)
	}
}

// TestMaintainerTrimAnswersCollectedPositionsAtOnce: once Trim has
// released a prefix, a read inside it is a plain miss — not a position whose
// payload is in flight, which would park and then fail retryably.
func TestMaintainerTrimAnswersCollectedPositionsAtOnce(t *testing.T) {
	m := newTestMaintainer(t, 0, 1, 1000)
	for i := 0; i < 20; i++ {
		m.Append([]*core.Record{bodyRec(fmt.Sprint(i))})
	}
	if n, err := m.Trim(10, nil); err != nil || n != 10 {
		t.Fatalf("Trim(10) = %d, %v; want 10 records", n, err)
	}
	start := time.Now()
	if _, err := m.Read(5); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("Read of a collected position = %v, want ErrNoSuchRecord", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("Read of a collected position took %v", d)
	}
	if rec, err := m.Read(11); err != nil || rec.LId != 11 {
		t.Errorf("Read(11) above the bound = %v, %v", rec, err)
	}
}

// TestTrimDropsCollectedPostings: Trim drops an in-process indexer's
// postings at or below the bound, so a tag read whose matches straddle the
// bound returns exactly the live records, with a limit or without.
func TestTrimDropsCollectedPostings(t *testing.T) {
	ix := NewIndexer(nil)
	p := Placement{NumMaintainers: 1, BatchSize: 100}
	m, err := NewMaintainer(MaintainerConfig{Index: 0, Placement: p, Indexers: []IndexerAPI{ix}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := m.Append([]*core.Record{{Tags: []core.Tag{{Key: "k", Value: "v"}}, Body: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Trim(10, nil); err != nil {
		t.Fatal(err)
	}
	if lids, _ := ix.Lookup(LookupQuery{Key: "k"}); len(lids) != 10 || lids[0] != 11 {
		t.Errorf("the indexer holds %v after Trim(10); want 11..20", lids)
	}
	c, err := NewDirectClient(p, []MaintainerAPI{m}, []IndexerAPI{ix})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ limit, want int }{{0, 10}, {1, 1}} {
		recs, err := c.Read(core.Rule{TagKey: "k", Limit: q.limit})
		if err != nil || len(recs) != q.want || recs[0].LId != 11 {
			t.Errorf("tag read with Limit %d after Trim(10) = %d records, %v; want %d from LId 11", q.limit, len(recs), err, q.want)
		}
	}
}

func TestMaintainerLimiterRejectsAndCounts(t *testing.T) {
	lim := ratelimit.New(10, 5) // tiny capacity
	m, _ := NewMaintainer(MaintainerConfig{
		Index: 0, Placement: Placement{NumMaintainers: 1, BatchSize: 100},
		Limiter: lim, RejectPenalty: 0.25,
	})
	var ok, rejected int
	for i := 0; i < 50; i++ {
		_, err := m.Append([]*core.Record{bodyRec("x")})
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Errorf("ok=%d rejected=%d; want both nonzero", ok, rejected)
	}
	if got := m.Rejected.Value(); got != uint64(rejected) {
		t.Errorf("Rejected counter = %d, want %d", got, rejected)
	}
	if got := m.Appended.Value(); got != uint64(ok) {
		t.Errorf("Appended counter = %d, want %d", got, ok)
	}
}

func TestMaintainerRecoversFrontierFromStore(t *testing.T) {
	st := storage.NewMemStore()
	p := Placement{NumMaintainers: 2, BatchSize: 5}
	m1, _ := NewMaintainer(MaintainerConfig{Index: 0, Placement: p, Store: st})
	for i := 0; i < 7; i++ { // fills 1-5, 11-12
		m1.Append([]*core.Record{bodyRec("x")})
	}
	// "Restart": a new maintainer over the same store must resume at the
	// next owned slot, not reassign LIds.
	m2, _ := NewMaintainer(MaintainerConfig{Index: 0, Placement: p, Store: st})
	lids, err := m2.Append([]*core.Record{bodyRec("y")})
	if err != nil {
		t.Fatal(err)
	}
	if lids[0] != 13 {
		t.Errorf("post-restart LId = %d, want 13", lids[0])
	}
}

func TestMaintainerGossipUnknownPeer(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 5)
	// Entry 5 names a maintainer this two-member placement doesn't have.
	if _, _, err := m.GossipVecs([]uint64{0, 0, 0, 0, 0, 100}, nil); err == nil {
		t.Error("gossip naming an unknown maintainer accepted")
	}
	if h, _ := m.Head(); h != 0 {
		t.Errorf("rejected gossip moved the head to %d", h)
	}
}

// TestUnencodableRecordTakesNoPosition: a tag key or value longer than its
// 16-bit length field used to be stored (and posted to the indexers, over
// the wire, as garbage that decoded without error) and acknowledged; read
// back it was corruption, and a store holding one never reopened. Every
// entry point now refuses the batch before a position is taken: the
// frontier, the store, the indexer and the next append are untouched.
func TestUnencodableRecordTakesNoPosition(t *testing.T) {
	ix := NewIndexer(nil)
	srv := rpc.NewServer()
	ServeIndexer(srv, ix)
	m, err := NewMaintainer(MaintainerConfig{
		Index: 0, Placement: Placement{NumMaintainers: 1, BatchSize: 100},
		Indexers: []IndexerAPI{NewIndexerClient(rpc.NewLocalClient(srv))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]*core.Record{{Tags: []core.Tag{{Key: "k", Value: "v"}}, Body: []byte("first")}}); err != nil {
		t.Fatal(err)
	}
	msrv := rpc.NewServer()
	ServeMaintainer(msrv, m)
	remote := NewMaintainerClient(rpc.NewLocalClient(msrv))
	huge := string(make([]byte, 70000))
	bad := func() []*core.Record {
		return []*core.Record{bodyRec("rides along"), {Tags: []core.Tag{{Key: "k", Value: huge}}, Body: []byte("x")}}
	}
	placed := bad()
	placed[0].LId, placed[1].LId = 2, 3
	for name, appendBad := range map[string]func() error{
		"Append":         func() error { _, err := m.Append(bad()); return err },
		"AppendFor":      func() error { _, err := m.AppendFor(0, bad()); return err },
		"AppendAfter":    func() error { _, err := m.AppendAfter(50, bad()); return err }, // would be buffered
		"AppendAssigned": func() error { return m.AppendAssigned(placed) },
		"ReplicaAppend":  func() error { return m.ReplicaAppend(placed) },
		"remote Append":  func() error { _, err := remote.Append(bad()); return err }, // refused by the stub, before the encoder
		"long key": func() error {
			_, err := m.Append([]*core.Record{{Tags: []core.Tag{{Key: huge}}}})
			return err
		},
	} {
		if err := appendBad(); !errors.Is(err, core.ErrUnencodable) {
			t.Errorf("%s of an unencodable record = %v, want ErrUnencodable", name, err)
		}
		if next, _ := m.NextUnfilled(); next != 2 || m.Store().Len() != 1 || ix.Keys() != 1 {
			t.Fatalf("after %s: next unfilled %d, %d stored, %d index keys; want 2, 1, 1", name, next, m.Store().Len(), ix.Keys())
		}
	}
	lids, err := m.Append([]*core.Record{bodyRec("next")})
	if err != nil || lids[0] != 2 {
		t.Fatalf("append after the refusals = %v, %v; want LId 2", lids, err)
	}
	if lids, err := ix.Lookup(LookupQuery{Key: "k"}); err != nil || len(lids) != 1 || lids[0] != 1 {
		t.Errorf("index holds %v, %v; want the one good posting", lids, err)
	}
}
