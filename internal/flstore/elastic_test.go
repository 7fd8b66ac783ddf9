package flstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/rpc"
	"repro/internal/storage"
)

func TestSealAtValidation(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 4) // round length 8
	if err := m.SealAt(10); err == nil {
		t.Error("non-round-aligned boundary accepted")
	}
	if err := m.SealAt(1); err == nil {
		t.Error("boundary 1 accepted")
	}
	// Fill past the first round so a low boundary is below the frontier.
	for i := 0; i < 6; i++ {
		if _, err := m.Append([]*core.Record{bodyRec(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SealAt(9); err == nil {
		t.Error("boundary below the fill frontier accepted")
	}
	if err := m.SealAt(17); err != nil {
		t.Fatalf("valid seal: %v", err)
	}
	if err := m.SealAt(17); err != nil {
		t.Fatalf("idempotent reseal at same boundary: %v", err)
	}
	// Until Pad a seal only rises: raising succeeds, lowering fails.
	if err := m.SealAt(25); err != nil {
		t.Fatalf("raising an unpadded seal: %v", err)
	}
	if err := m.SealAt(17); err == nil {
		t.Error("lowering a seal accepted")
	}
	if m.sealLId != 25 {
		t.Fatalf("sealed at %d, want 25", m.sealLId)
	}
	// Once padded the caps are final.
	if _, err := m.Pad(); err != nil {
		t.Fatal(err)
	}
	if err := m.SealAt(33); err == nil {
		t.Error("raising a padded seal accepted")
	}
	if err := m.SealAt(25); err != nil {
		t.Fatalf("idempotent reseal after pad: %v", err)
	}
}

func TestSealRejectsCrossingAppends(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 4)
	if err := m.SealAt(9); err != nil { // caps own range at 4 slots
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Append([]*core.Record{bodyRec(fmt.Sprint(i))}); err != nil {
			t.Fatalf("append %d below the cap: %v", i, err)
		}
	}
	_, err := m.Append([]*core.Record{bodyRec("over")})
	if err == nil {
		t.Fatal("append across the seal cap accepted")
	}
	if !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("crossing append error = %v, want ErrEpochSealed", err)
	}
	var se *EpochSealedError
	if !errors.As(err, &se) || se.FirstLId != 9 {
		t.Fatalf("error %v does not carry the boundary 9", err)
	}
	if IsRetryable(err) {
		t.Error("EpochSealedError must not be retryable (clients re-poll the controller instead)")
	}
}

func TestPadClosesRangeDense(t *testing.T) {
	m := newTestMaintainer(t, 1, 2, 4) // owns 5-8, 13-16, ...
	if _, err := m.Append([]*core.Record{bodyRec("a"), bodyRec("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pad(); err == nil {
		t.Error("Pad before SealAt accepted")
	}
	if err := m.SealAt(9); err != nil {
		t.Fatal(err)
	}
	pads, err := m.Pad()
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 2 {
		t.Fatalf("padded %d records, want 2", len(pads))
	}
	for _, r := range pads {
		if r.TOId != r.LId {
			t.Errorf("pad record %d has TOId %d, want its LId", r.LId, r.TOId)
		}
		if len(r.Tags) != 1 || r.Tags[0].Key != SealTagKey {
			t.Errorf("pad record %d not tagged %q: %v", r.LId, SealTagKey, r.Tags)
		}
	}
	if n, _ := m.NextUnfilled(); n != 13 {
		t.Fatalf("NextUnfilled after pad = %d, want 13 (next round past the boundary)", n)
	}
	// The range is dense below the boundary: every owned LId readable.
	for _, lid := range []uint64{5, 6, 7, 8} {
		if _, err := m.Read(lid); err != nil {
			t.Fatalf("read LId %d after pad: %v", lid, err)
		}
	}
	// Second pad is a no-op.
	if pads, err := m.Pad(); err != nil || pads != nil {
		t.Fatalf("re-pad = (%v, %v), want (nil, nil)", pads, err)
	}
}

func TestPadKeepsBufferedAssigned(t *testing.T) {
	m := newTestMaintainer(t, 0, 2, 4) // owns 1-4, 9-12, ...
	if _, err := m.Append([]*core.Record{bodyRec("a"), bodyRec("b")}); err != nil {
		t.Fatal(err)
	}
	// An upstream-assigned record for slot 3 (LId 4) races the seal: it
	// sits in the out-of-order buffer when the pad runs.
	race := &core.Record{LId: 4, TOId: 4, Body: []byte("raced")}
	if err := m.AppendAssigned([]*core.Record{race}); err != nil {
		t.Fatal(err)
	}
	if err := m.SealAt(9); err != nil {
		t.Fatal(err)
	}
	pads, err := m.Pad()
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 2 { // slot 2 filler + the raced record
		t.Fatalf("padded %d records, want 2", len(pads))
	}
	rec, err := m.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Body) != "raced" {
		t.Fatalf("LId 4 body = %q, want the raced record, not a filler", rec.Body)
	}
	if rec3, err := m.Read(3); err != nil || len(rec3.Tags) != 1 || rec3.Tags[0].Key != SealTagKey {
		t.Fatalf("LId 3 should be a seal filler, got (%v, %v)", rec3, err)
	}
}

// TestPlacementAtConcurrentFlip is the epoch-boundary property test:
// while a flip is being announced, every configuration snapshot a client
// can observe maps every LId to exactly one placement — the old one below
// the boundary, the new one at and above it, never neither or both.
func TestPlacementAtConcurrentFlip(t *testing.T) {
	pOld := Placement{NumMaintainers: 2, BatchSize: 4}
	pNew := Placement{NumMaintainers: 4, BatchSize: 4}
	const boundary = 17
	ctrl, err := NewController(Config{Placement: pOld})
	if err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for iter := 0; iter < 200; iter++ {
				cfg, err := ctrl.GetConfig()
				if err != nil {
					errc <- err
					return
				}
				flipped := len(cfg.Epochs) == 2
				for lid := uint64(1); lid <= 40; lid++ {
					p, err := PlacementAt(cfg.Epochs, lid)
					if err != nil {
						errc <- fmt.Errorf("LId %d unroutable: %w", lid, err)
						return
					}
					want := pOld
					if flipped && lid >= boundary {
						want = pNew
					}
					if p != want {
						errc <- fmt.Errorf("LId %d routed to %+v, want %+v (flipped=%v)", lid, p, want, flipped)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := ctrl.AnnounceEpochTopology(boundary, pNew, nil); err != nil {
			errc <- err
		}
	}()
	close(start)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Post-flip the boundary itself is the first LId of the new epoch.
	cfg, _ := ctrl.GetConfig()
	if p, _ := PlacementAt(cfg.Epochs, boundary-1); p != pOld {
		t.Fatalf("LId %d = %+v, want old placement", boundary-1, p)
	}
	if p, _ := PlacementAt(cfg.Epochs, boundary); p != pNew {
		t.Fatalf("LId %d = %+v, want new placement", boundary, p)
	}
}

// growSet builds an in-process member set factory for orchestrator tests.
func growSet(t *testing.T) (func(p Placement, firstLId uint64) (MemberSet, error), *[]*Maintainer) {
	t.Helper()
	var made []*Maintainer
	holder := &made
	return func(p Placement, firstLId uint64) (MemberSet, error) {
		ms := MemberSet{Maintainers: make([]*Maintainer, p.NumMaintainers)}
		for i := 0; i < p.NumMaintainers; i++ {
			m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, FirstLId: firstLId})
			if err != nil {
				return ms, err
			}
			ms.Maintainers[i] = m
		}
		*holder = ms.Maintainers
		return ms, nil
	}, holder
}

func TestOrchestratorGrowEndToEnd(t *testing.T) {
	pOld := Placement{NumMaintainers: 2, BatchSize: 4}
	old := MemberSet{Maintainers: []*Maintainer{
		newTestMaintainer(t, 0, 2, 4),
		newTestMaintainer(t, 1, 2, 4),
	}}
	ctrl, err := NewController(Config{Placement: pOld})
	if err != nil {
		t.Fatal(err)
	}
	grow, next := growSet(t)
	orch, err := NewOrchestrator(OrchestratorConfig{
		Controller: ctrl,
		Current:    old,
		Grow:       grow,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Live traffic on the old set before the flip.
	var bodies []uint64
	for i := 0; i < 5; i++ {
		lids, err := old.Maintainers[i%2].Append([]*core.Record{bodyRec(fmt.Sprint(i))})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, lids...)
	}

	st, err := orch.Grow(Placement{NumMaintainers: 4, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.FirstLId == 0 || st.NumMaintainers != 4 {
		t.Fatalf("grow returned %+v", st)
	}
	if err := orch.WaitMigration(); err != nil {
		t.Fatal(err)
	}
	eps, err := orch.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || !eps[0].Sealed || eps[1].Sealed {
		t.Fatalf("epoch journal %+v", eps)
	}
	boundary := eps[1].FirstLId
	if !eps[0].MigrationDone || eps[0].RecordsStreamed != boundary-1 {
		t.Fatalf("migration state %+v, want done with %d records", eps[0], boundary-1)
	}

	// The old epoch is dense to the boundary on the old members...
	for lid := uint64(1); lid < boundary; lid++ {
		if _, err := old.Maintainers[pOld.Owner(lid)].Read(lid); err != nil {
			t.Fatalf("old member read LId %d: %v", lid, err)
		}
	}
	// ...and fully migrated onto the new targets (old range j -> new j).
	for lid := uint64(1); lid < boundary; lid++ {
		target := (*next)[pOld.Owner(lid)]
		rec, err := target.Read(lid)
		if err != nil {
			t.Fatalf("migrated read LId %d: %v", lid, err)
		}
		if rec.LId != lid {
			t.Fatalf("migrated LId %d returned record %d", lid, rec.LId)
		}
	}
	// Appended bodies survived the migration verbatim.
	for i, lid := range bodies {
		rec, err := (*next)[pOld.Owner(lid)].Read(lid)
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Body) != fmt.Sprint(i) {
			t.Fatalf("LId %d body = %q, want %q", lid, rec.Body, fmt.Sprint(i))
		}
	}
	// The new set serves the new epoch: an append lands at the boundary.
	lids, err := (*next)[0].Append([]*core.Record{bodyRec("new epoch")})
	if err != nil {
		t.Fatal(err)
	}
	if lids[0] != boundary {
		t.Fatalf("first new-epoch append got LId %d, want the boundary %d", lids[0], boundary)
	}
}

// TestGrowSealsBeforeJournalling races live appends against Grow: the grow
// factory appends to an old owner while the new set is built, far past any
// headroom. A boundary picked before the build and sealed after it is
// outrun, and the journal would advertise a switchover that never happened.
// A Grow that fails must leave the journal as it was and the old epoch
// taking appends; one that succeeds journals exactly one epoch, and every
// acknowledged append lands below its boundary and stays readable.
func TestGrowSealsBeforeJournalling(t *testing.T) {
	pOld := Placement{NumMaintainers: 2, BatchSize: 4}
	old := MemberSet{Maintainers: []*Maintainer{
		newTestMaintainer(t, 0, 2, 4),
		newTestMaintainer(t, 1, 2, 4),
	}}
	ctrl, err := NewController(Config{Placement: pOld})
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	appendOld := func(n int) (sealed int) {
		for i := 0; i < n; i++ {
			lids, err := old.Maintainers[0].Append([]*core.Record{bodyRec(fmt.Sprint(i))})
			if errors.Is(err, ErrEpochSealed) {
				sealed++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			acked = append(acked, lids...)
		}
		return sealed
	}
	journal := func() int {
		cfg, err := ctrl.GetConfig()
		if err != nil {
			t.Fatal(err)
		}
		return len(cfg.Epochs)
	}
	build, next := growSet(t)
	factoryDown := true
	orch, err := NewOrchestrator(OrchestratorConfig{
		Controller: ctrl,
		Current:    old,
		Grow: func(p Placement, firstLId uint64) (MemberSet, error) {
			appendOld(40)
			if factoryDown {
				return MemberSet{}, errors.New("factory down")
			}
			return build(p, firstLId)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pNew := Placement{NumMaintainers: 4, BatchSize: 4}

	if _, err := orch.Grow(pNew); err == nil {
		t.Fatal("Grow succeeded with a failing factory")
	}
	if n := journal(); n != 1 {
		t.Fatalf("failed Grow left %d epochs in the journal, want 1", n)
	}
	if sealed := appendOld(8); sealed != 0 {
		t.Fatalf("%d of 8 appends refused as sealed after a failed Grow", sealed)
	}

	factoryDown = false
	st, err := orch.Grow(pNew)
	if err != nil {
		t.Fatal(err)
	}
	if n := journal(); n != 2 {
		t.Fatalf("journal has %d epochs after one Grow, want 2", n)
	}
	if err := orch.WaitMigration(); err != nil {
		t.Fatal(err)
	}
	for _, lid := range acked {
		if lid >= st.FirstLId {
			t.Fatalf("acknowledged old-epoch LId %d at or above the boundary %d", lid, st.FirstLId)
		}
		if _, err := (*next)[pOld.Owner(lid)].Read(lid); err != nil {
			t.Fatalf("acknowledged LId %d unreadable after the flip: %v", lid, err)
		}
	}
}

// gatedPuller holds every pull until the gate closes, so a test can look at
// a deployment while the old epoch's migration has not moved a record.
type gatedPuller struct {
	inner RangePuller
	gate  <-chan struct{}
}

func (g gatedPuller) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	<-g.gate
	return g.inner.PullRange(rangeIdx, fromLId, limit)
}

// TestClientReadsAcrossEpochs drives every batched read of the client
// across an elastic flip, over loopback TCP: records appended under a
// 2-maintainer epoch, a Grow to 4, more appends, then a client that learned
// both epochs from the controller's journal reads the whole log. Each
// surface must return every LId exactly once, in order, with the body that
// was appended (or the seal filler Pad wrote), from ReadRange/MultiRead
// RPCs cut at the epoch boundary — never from a Scan — both while the old
// epoch's migration is held back and after it completes.
func TestClientReadsAcrossEpochs(t *testing.T) {
	serve := func(p Placement, firstLId uint64) (MemberSet, error) {
		var ms MemberSet
		for i := 0; i < p.NumMaintainers; i++ {
			m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, FirstLId: firstLId})
			if err != nil {
				return ms, err
			}
			srv := rpc.NewServer()
			ServeMaintainer(srv, m)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return ms, err
			}
			t.Cleanup(func() { srv.Close() })
			ms.Maintainers = append(ms.Maintainers, m)
			ms.Addrs = append(ms.Addrs, addr.String())
		}
		return ms, nil
	}
	pOld, pNew := Placement{NumMaintainers: 2, BatchSize: 4}, Placement{NumMaintainers: 4, BatchSize: 4}
	old, err := serve(pOld, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{Placement: pOld, MaintainerAddrs: old.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	var next MemberSet
	gate := make(chan struct{})
	orch, err := NewOrchestrator(OrchestratorConfig{
		Controller: ctrl,
		Current:    old,
		Grow: func(p Placement, firstLId uint64) (MemberSet, error) {
			ms, err := serve(p, firstLId)
			next = ms
			return ms, err
		},
		PullSources: func(oldRange int) []RangePuller {
			return []RangePuller{gatedPuller{old.Maintainers[oldRange], gate}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make(map[uint64]string)
	appendN := func(c *Client, n int, prefix string) {
		t.Helper()
		for i := 0; i < n; i++ {
			body := fmt.Sprintf("%s-%d", prefix, i)
			lid, err := c.Append([]byte(body), nil)
			if err != nil {
				t.Fatal(err)
			}
			want[lid] = body
		}
	}
	before, err := NewClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	appendN(before, 21, "old")
	st, err := orch.Grow(pNew)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	appendN(c, 32, "new") // two whole rounds of the new placement
	head, err := c.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	if head != st.FirstLId-1+32 {
		t.Fatalf("head = %d, want %d (boundary %d)", head, st.FirstLId-1+32, st.FirstLId)
	}

	inOrder := func(what string, recs []*core.Record, lids []uint64) {
		t.Helper()
		if len(recs) != len(lids) {
			t.Fatalf("%s returned %d records, want %d", what, len(recs), len(lids))
		}
		for i, r := range recs {
			if r.LId != lids[i] {
				t.Fatalf("%s position %d holds LId %d, want %d", what, i, r.LId, lids[i])
			}
			body, appended := want[r.LId]
			if string(r.Body) != body {
				t.Fatalf("%s LId %d body = %q, want %q", what, r.LId, r.Body, body)
			}
			if sealed := len(r.Tags) == 1 && r.Tags[0].Key == SealTagKey; sealed == appended {
				t.Fatalf("%s LId %d: appended=%v but seal filler=%v", what, r.LId, appended, sealed)
			}
		}
	}
	all := make([]uint64, head)
	for i := range all {
		all[i] = uint64(i + 1)
	}
	check := func(phase string) {
		t.Helper()
		var rangeReads, multiReads [2]uint64
		for i, m := range old.Maintainers {
			rangeReads[i], multiReads[i] = m.RangeReads.Value(), m.MultiReads.Value()
		}
		recs, err := c.ReadRange(1, 0)
		if err != nil {
			t.Fatalf("%s: ReadRange: %v", phase, err)
		}
		inOrder(phase+": ReadRange", recs, all)

		shuffled := append([]uint64(nil), all...)
		rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if recs, err = c.ReadLIds(shuffled); err != nil {
			t.Fatalf("%s: ReadLIds: %v", phase, err)
		}
		inOrder(phase+": ReadLIds", recs, shuffled)

		var tailed []*core.Record
		err = c.Tail(context.Background(), 1, func(r *core.Record) bool {
			tailed = append(tailed, r)
			return uint64(len(tailed)) < head
		})
		if err != nil {
			t.Fatalf("%s: Tail: %v", phase, err)
		}
		inOrder(phase+": Tail", tailed, all)

		// The latest placement's partitions tile the whole log, old epoch
		// included: each position in exactly one, ascending within it.
		var owned []*core.Record
		for part := 0; part < pNew.NumMaintainers; part++ {
			recs, err := c.ReadRangeOwned(part, 1, 0)
			if err != nil {
				t.Fatalf("%s: ReadRangeOwned(%d): %v", phase, part, err)
			}
			for i, r := range recs {
				if pNew.Owner(r.LId) != part || (i > 0 && r.LId <= recs[i-1].LId) {
					t.Fatalf("%s: partition %d position %d holds LId %d", phase, part, i, r.LId)
				}
			}
			owned = append(owned, recs...)
		}
		sort.Slice(owned, func(i, j int) bool { return owned[i].LId < owned[j].LId })
		inOrder(phase+": ReadRangeOwned", owned, all)

		for set, ms := range [][]*Maintainer{old.Maintainers, next.Maintainers} {
			for i, m := range ms {
				if set == 0 && (m.RangeReads.Value() == rangeReads[i] || m.MultiReads.Value() == multiReads[i]) {
					t.Errorf("%s: old maintainer %d served no range read or no multi-read", phase, i)
				}
			}
		}
	}
	check("migration held")
	close(gate)
	if err := orch.WaitMigration(); err != nil {
		t.Fatal(err)
	}
	check("migration done")
}

// severAfter serves `after` pulls, then severs the injector link so the
// next pull fails like a killed maintainer — a deterministic mid-stream
// crash point on the seeded schedule.
type severAfter struct {
	inner RangePuller
	fi    *faultinject.Controller
	link  string
	after int
	calls int
}

func (s *severAfter) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	s.calls++
	if s.calls > s.after {
		s.fi.Sever(s.link)
	}
	return s.inner.PullRange(rangeIdx, fromLId, limit)
}

// TestMigrationSourceFailover kills the migration's primary source
// mid-stream (the seeded fault injector severs its link after two
// successful pulls): the orchestrator must fail over to the next source
// and still converge to a complete, dense copy (the ingest path is
// idempotent, so the overlap re-pulled after the switch is harmless).
func TestMigrationSourceFailover(t *testing.T) {
	pOld := Placement{NumMaintainers: 2, BatchSize: 4}
	old := MemberSet{Maintainers: []*Maintainer{
		newTestMaintainer(t, 0, 2, 4),
		newTestMaintainer(t, 1, 2, 4),
	}}
	for i := 0; i < 6; i++ {
		if _, err := old.Maintainers[i%2].Append([]*core.Record{bodyRec(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Old maintainer 0 behind real RPC, wrapped in a seeded lossy link:
	// its pulls start failing at a schedule-determined step.
	srv := rpc.NewServer()
	ServeMaintainer(srv, old.Maintainers[0])
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
	fi := faultinject.New(faultinject.Options{Seed: 11})
	flaky := &severAfter{
		inner: NewMaintainerClient(fi.Wrap("mig0", conn)).(RangePuller),
		fi:    fi, link: "mig0", after: 2,
	}

	ctrl, err := NewController(Config{Placement: pOld})
	if err != nil {
		t.Fatal(err)
	}
	grow, next := growSet(t)
	orch, err := NewOrchestrator(OrchestratorConfig{
		Controller:   ctrl,
		Current:      old,
		Grow:         grow,
		MigrateBatch: 4, // several pulls per range, so the kill lands mid-stream
		PullSources: func(oldRange int) []RangePuller {
			if oldRange == 0 {
				return []RangePuller{flaky, old.Maintainers[0]}
			}
			return []RangePuller{old.Maintainers[1]}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orch.Grow(Placement{NumMaintainers: 4, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	if err := orch.WaitMigration(); err != nil {
		t.Fatalf("migration did not converge through the source failure: %v", err)
	}
	if len(fi.Events()) == 0 {
		t.Fatal("fault injector never fired; the test exercised nothing")
	}
	eps, err := orch.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if !eps[0].MigrationDone {
		t.Fatalf("migration incomplete: %+v", eps[0])
	}
	boundary := eps[1].FirstLId
	for lid := uint64(1); lid < boundary; lid++ {
		if _, err := (*next)[pOld.Owner(lid)].Read(lid); err != nil {
			t.Fatalf("migrated read LId %d after failover: %v", lid, err)
		}
	}
}

// TestMigrationRestartResumes restarts a migration target mid-stream: a
// new-epoch maintainer is reopened over a store holding a partial old
// range beside its own epoch's records. Re-declaring the migrated ranges
// must recover the old range's dense prefix — by the same scan that
// recovers the epoch's own ranges — so the cursor resumes there, Read
// serves what was recovered, and re-driving the stream (overlap included)
// completes the range.
func TestMigrationRestartResumes(t *testing.T) {
	pOld := Placement{NumMaintainers: 2, BatchSize: 4}
	pNew := Placement{NumMaintainers: 1, BatchSize: 8}
	const boundary = 17 // two whole rounds under either placement
	oldRecs := func(lids ...uint64) []*core.Record {
		recs := make([]*core.Record, len(lids))
		for i, lid := range lids {
			recs[i] = &core.Record{LId: lid, TOId: lid, Body: []byte("old")}
		}
		return recs
	}
	st := storage.NewMemStore()
	open := func() *Maintainer {
		t.Helper()
		m, err := NewMaintainer(MaintainerConfig{Placement: pNew, FirstLId: boundary, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.HostMigrated(pOld, []int{0}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Old range 0 owns LIds 1-4 and 9-12 below the boundary; the first
	// incarnation gets three of them in, and one record of its own epoch.
	m := open()
	if err := m.IngestMigrated(oldRecs(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]*core.Record{bodyRec("new")}); err != nil {
		t.Fatal(err)
	}
	// Each entry point keeps to its side of the boundary: a misrouted source
	// must not fill the other epoch's range.
	if err := m.IngestMigrated(oldRecs(boundary + 1)); err == nil {
		t.Error("IngestMigrated accepted a current-epoch LId")
	}
	if err := m.ReplicaAppend(oldRecs(4)); err == nil {
		t.Error("ReplicaAppend accepted a previous-epoch LId")
	}

	m = open() // restart
	cursor, done, err := m.MigratedFrontier(0)
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 4 || done {
		t.Fatalf("cursor after restart = %d (done=%v), want 4: the dense prefix", cursor, done)
	}
	if n, _ := m.NextUnfilled(); n != boundary+1 {
		t.Errorf("own frontier after restart = %d, want %d", n, boundary+1)
	}
	if _, err := m.Read(6); !errors.Is(err, ErrWrongMaintainer) {
		t.Errorf("Read of old range 1, not migrated here = %v, want ErrWrongMaintainer", err)
	}
	if _, err := m.Read(4); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("Read at the cursor = %v, want ErrNoSuchRecord", err)
	}

	// Re-drive from a source that re-sends part of what already landed.
	if err := m.IngestMigrated(oldRecs(2, 3, 4, 9, 10, 11, 12)); err != nil {
		t.Fatal(err)
	}
	if cursor, done, _ = m.MigratedFrontier(0); !done || cursor < boundary {
		t.Fatalf("cursor after re-drive = %d (done=%v), want the range complete", cursor, done)
	}
	for _, lid := range []uint64{1, 2, 3, 4, 9, 10, 11, 12} {
		if rec, err := m.Read(lid); err != nil || string(rec.Body) != "old" {
			t.Fatalf("Read(%d) of a migrated position = %v, %v", lid, rec, err)
		}
	}
}

func TestAdminRoundTrip(t *testing.T) {
	p := Placement{NumMaintainers: 2, BatchSize: 4}
	ctrl, err := NewController(Config{
		Placement:       p,
		MaintainerAddrs: []string{"old-a:1", "old-b:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	ServeController(srv, ctrl)
	ServeAdmin(srv, &ControllerAdmin{Ctrl: ctrl})
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
	admin := NewAdmin(conn)
	ctx := context.Background()

	eps, err := admin.Epochs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 || eps[0].FirstLId != 1 || eps[0].Sealed {
		t.Fatalf("initial journal %+v", eps)
	}

	// Nothing here can seal the serving owners, so a proposal is refused —
	// remotely, not retryably — and the journal does not move.
	_, err = admin.ProposeEpoch(ctx, EpochProposal{
		FirstLId:        17,
		NumMaintainers:  4,
		MaintainerAddrs: []string{"new-a:1", "new-b:1", "new-c:1", "new-d:1"},
	})
	if err == nil || IsRetryable(err) {
		t.Fatalf("proposal to a static deployment = %v, want a non-retryable refusal", err)
	}
	if eps, err = admin.Epochs(ctx); err != nil || len(eps) != 1 || eps[0].Sealed {
		t.Fatalf("journal after a refused proposal %+v, %v", eps, err)
	}

	// A dead context short-circuits before the wire.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := admin.Epochs(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx error = %v", err)
	}
}

// TestStaticGrowRefused: a static deployment's admin surface refuses an
// epoch proposal, since nothing there seals the serving owners. Clients
// that keep appending, the old one and one started after the proposal,
// are never acknowledged the same LId twice.
func TestStaticGrowRefused(t *testing.T) {
	p := Placement{NumMaintainers: 2, BatchSize: 4}
	serve := func(ms ...*Maintainer) []string {
		var addrs []string
		for _, m := range ms {
			srv := rpc.NewServer()
			ServeMaintainer(srv, m)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs = append(addrs, addr.String())
		}
		return addrs
	}
	oldAddrs := serve(newTestMaintainer(t, 0, 2, 4), newTestMaintainer(t, 1, 2, 4))
	fresh := make([]*Maintainer, 2)
	for i := range fresh {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, FirstLId: 17})
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = m
	}
	newAddrs := serve(fresh...)

	ctrl, err := NewController(Config{Placement: p, MaintainerAddrs: oldAddrs})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	ServeController(srv, ctrl)
	ServeAdmin(srv, &ControllerAdmin{Ctrl: ctrl})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func() rpc.Client {
		conn, err := rpc.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	client := func() *Client {
		c, err := NewClient(NewControllerClient(dial()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	acked := make(map[uint64]string)
	appendVia := func(c *Client, who string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			lid, err := c.Append([]byte(who), nil)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := acked[lid]; dup {
				t.Errorf("LId %d acknowledged to client %s and again to client %s", lid, prev, who)
			}
			acked[lid] = who
		}
	}

	a := client()
	appendVia(a, "A", 8)
	_, err = NewAdmin(dial()).ProposeEpoch(context.Background(), EpochProposal{
		FirstLId: 17, NumMaintainers: 2, MaintainerAddrs: newAddrs,
	})
	if err == nil {
		t.Error("a static deployment accepted an epoch it cannot seal the owners for")
	}
	appendVia(a, "A", 20)
	appendVia(client(), "B", 8)
}
