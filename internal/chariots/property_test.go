package chariots

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// TestFilterExactlyOnceProperty feeds a filter a stream with random
// duplication and reordering and asserts the output is the host's exact
// total order, each record exactly once — the §6.2 uniqueness guarantee.
func TestFilterExactlyOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		routing, _ := NewFilterRouting(2, 1)
		out := make(chan []*core.Record, 1024)
		fl := NewFilter("Filter", nil, 0, 0, make(chan []*core.Record, 16), routing, []chan<- []*core.Record{out}, 0)

		const n = 60
		// Build a delivery schedule: every TOId 1..n appears 1-3
		// times, shuffled within a bounded reorder window.
		var schedule []uint64
		for toid := uint64(1); toid <= n; toid++ {
			for c := 0; c < 1+rng.Intn(3); c++ {
				schedule = append(schedule, toid)
			}
		}
		// Bounded shuffle: swap within window 8.
		for i := range schedule {
			j := i + rng.Intn(8)
			if j < len(schedule) {
				schedule[i], schedule[j] = schedule[j], schedule[i]
			}
		}
		for _, toid := range schedule {
			fl.process([]*core.Record{{Host: 1, TOId: toid, Body: []byte(fmt.Sprint(toid))}})
		}
		// Collect output.
		close(out)
		var got []uint64
		for batch := range out {
			for _, r := range batch {
				got = append(got, r.TOId)
			}
		}
		if len(got) != n {
			return false
		}
		for i, toid := range got {
			if toid != uint64(i+1) {
				return false
			}
		}
		return fl.AheadLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQueueApplyMatchesAbstractProperty: for random record sets, the
// queue's token-based apply admits exactly the records the abstract
// solution's applicability rule admits, with identical resulting applied
// vectors.
func TestQueueApplyMatchesAbstractProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nDCs = 3

		// Random external records: per remote host, a prefix of its
		// total order is "available"; each record's deps reference
		// random other hosts.
		var work []*core.Record
		for host := core.DCID(1); host < nDCs; host++ {
			avail := rng.Intn(6)
			perm := rng.Perm(avail)
			for _, i := range perm {
				rec := &core.Record{Host: host, TOId: uint64(i + 1)}
				// Random dependency on the other remote host.
				other := core.DCID(1 + (int(host))%(nDCs-1))
				if other != host && rng.Intn(2) == 0 {
					rec.Deps = []core.Dep{{DC: other, TOId: uint64(rng.Intn(4))}}
				}
				work = append(work, rec)
			}
		}

		// Abstract: drain via the reference priority queue.
		abs := NewAbstractDC(0, nDCs)
		var absIn []*core.Record
		for _, r := range work {
			absIn = append(absIn, r.Clone())
		}
		abs.Receive(Snapshot{From: 1, Records: absIn})

		// Distributed: a queue with a fresh token applying the same
		// records directly.
		state := newDCState(0, nDCs)
		p := flstore.Placement{NumMaintainers: 1, BatchSize: 100}
		m, _ := flstore.NewMaintainer(flstore.MaintainerConfig{Index: 0, Placement: p})
		q := NewQueue("Queue", nil, 0, state, make(chan []*core.Record, 1), p,
			[]flstore.MaintainerAPI{m}, false)
		tok := NewToken(nDCs)
		var qIn []*core.Record
		for _, r := range work {
			qIn = append(qIn, r.Clone())
		}
		outs := []chan []*core.Record{make(chan []*core.Record, 1024)}
		applied, leftover := q.apply(tok, qIn, outs, nil)

		if applied != abs.Len() {
			return false
		}
		// Applied vectors agree.
		absVec := abs.ATable().SelfVector()
		for i := 0; i < nDCs; i++ {
			if tok.Applied.Get(core.DCID(i)) != absVec.Get(core.DCID(i)) {
				return false
			}
		}
		return len(leftover) == abs.PendingLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestATableConvergenceProperty: shipping tables in random directions
// converges every datacenter's table to the elementwise maximum.
func TestATableConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		tables := make([]*vclock.ATable, n)
		for i := range tables {
			tables[i] = vclock.NewATable(core.DCID(i), n)
			for c := 0; c < n; c++ {
				tables[i].Advance(core.DCID(i), core.DCID(c), uint64(rng.Intn(50)))
			}
		}
		// Random gossip rounds, then a full exchange.
		for step := 0; step < 10; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				tables[j].MergeSnapshot(tables[i].Snapshot())
			}
		}
		for round := 0; round < n; round++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						tables[j].MergeSnapshot(tables[i].Snapshot())
					}
				}
			}
		}
		// All tables identical.
		base := tables[0].Snapshot()
		for _, tb := range tables[1:] {
			snap := tb.Snapshot()
			for r := range base {
				for c := range base[r] {
					if snap[r][c] != base[r][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWholeDatacenterFailureAndRecovery is the §1 availability claim: when
// a datacenter dies, the surviving ones keep appending and replicating
// among themselves; when it returns (empty — total loss) peers resync it
// to the full causal log.
func TestWholeDatacenterFailureAndRecovery(t *testing.T) {
	a := startDC(t, fastCfg(0, 3))
	b := startDC(t, fastCfg(1, 3))
	c := startDC(t, fastCfg(2, 3)) // the one that will "fail"
	wire := func(from, to *Datacenter) { from.ConnectTo(to.Self(), to.Receivers()) }
	wire(a, b)
	wire(b, a)
	wire(a, c)
	wire(c, a)
	wire(b, c)
	wire(c, b)

	// Phase 1: all three alive.
	for i := 0; i < 20; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a-pre-%d", i)), nil)
	}
	if !c.WaitForTOId(0, 20, 10*time.Second) {
		t.Fatal("phase 1 replication failed")
	}

	// Phase 2: C fails. A and B keep working (availability under
	// partition — the CAP stance of §1).
	c.Stop()
	for i := 0; i < 30; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a-post-%d", i)), nil)
		b.AppendAsync([]byte(fmt.Sprintf("b-post-%d", i)), nil)
	}
	if !a.WaitForTOId(1, 30, 10*time.Second) || !b.WaitForTOId(0, 50, 10*time.Second) {
		t.Fatal("survivors stalled during C's outage")
	}

	// Phase 3: C returns as a fresh instance (total state loss). The
	// survivors resync it from their logs.
	c2 := startDC(t, fastCfg(2, 3))
	wire(a, c2)
	wire(b, c2)
	wire(c2, a)
	wire(c2, b)
	// The survivors' awareness tables still remember what the dead C
	// knew, so the incremental Resync would skip records 1..20; a
	// replacement instance bootstraps with ResyncAll.
	if _, err := a.ResyncAll(2, a.Senders()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ResyncAll(2, b.Senders()[0]); err != nil {
		t.Fatal(err)
	}
	if !c2.WaitForTOId(0, 50, 10*time.Second) || !c2.WaitForTOId(1, 30, 10*time.Second) {
		t.Fatalf("recovered DC never caught up: applied %v", c2.Applied())
	}
	c2.Quiesce(30*time.Millisecond, 5*time.Second)
	recs, err := c2.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 80 {
		t.Errorf("recovered DC has %d records, want 80", len(recs))
	}
	if err := CheckCausalInvariant(recs); err != nil {
		t.Error(err)
	}
}

// TestDatacenterRecoversFromPersistentLog is the paper's intended recovery
// path: a datacenter restarts with its persistent log (here: the same
// backing stores) and rebuilds its ordering state — applied vector, next
// LId, awareness self-row — from the records themselves, then catches up
// incrementally via Resync.
func TestDatacenterRecoversFromPersistentLog(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))

	// B gets explicit stores so a second instance can reopen them.
	cfgB := fastCfg(1, 2)
	cfgB.Maintainers = 3
	stores := make([]storage.Store, cfgB.Maintainers)
	for i := range stores {
		stores[i] = storage.NewMemStore()
	}
	cfgB.Stores = stores
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	for i := 0; i < 25; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
		b.AppendAsync([]byte(fmt.Sprintf("b%d", i)), nil)
	}
	if !b.WaitForTOId(0, 25, 10*time.Second) || !a.WaitForTOId(1, 25, 10*time.Second) {
		t.Fatal("initial replication failed")
	}
	b.Quiesce(30*time.Millisecond, 5*time.Second)
	preCrash, _ := b.LogRecords()
	b.Stop() // crash

	// More activity at A while B is down.
	for i := 0; i < 15; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a-down-%d", i)), nil)
	}
	if !a.WaitForTOId(0, 40, 10*time.Second) {
		t.Fatal("A stalled during B outage")
	}

	// B restarts over the same stores.
	b2, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	b2.Start()
	t.Cleanup(b2.Stop)
	// Recovered ordering state matches the pre-crash log.
	if got := b2.Applied(); got.Get(0) < 25 || got.Get(1) < 25 {
		t.Fatalf("recovered applied vector %v, want >= [25 25]", got)
	}
	rec0, _ := b2.LogRecords()
	if len(rec0) != len(preCrash) {
		t.Fatalf("recovered %d records, had %d", len(rec0), len(preCrash))
	}

	// Reconnect; incremental resync delivers only the missed records.
	a.ConnectTo(1, b2.Receivers())
	b2.ConnectTo(0, a.Receivers())
	sent, err := a.Resync(1, a.Senders()[0])
	if err != nil {
		t.Fatal(err)
	}
	if sent == 0 || sent > 20 {
		t.Errorf("incremental resync shipped %d records, want ≈15", sent)
	}
	if !b2.WaitForTOId(0, 40, 10*time.Second) {
		t.Fatal("B never caught up after restart")
	}
	// New local appends at B2 continue its own total order without
	// reusing TOIds.
	ack, err := b2.Append([]byte("post-restart"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.TOId != 26 {
		t.Errorf("post-restart TOId = %d, want 26", ack.TOId)
	}
	b2.Quiesce(30*time.Millisecond, 5*time.Second)
	recs, _ := b2.LogRecords()
	if err := CheckCausalInvariant(recs); err != nil {
		t.Error(err)
	}
}
