package chariots

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestDatacenterOnSegmentStores runs the full pipeline against disk-backed
// segment stores and restarts it over the same directories — the
// durability configuration of cmd/flstore applied to a whole datacenter.
func TestDatacenterOnSegmentStores(t *testing.T) {
	dir := t.TempDir()
	openStores := func() []storage.Store {
		stores := make([]storage.Store, 2)
		for i := range stores {
			st, err := storage.OpenSegmentStore(
				filepath.Join(dir, fmt.Sprintf("m%d", i)),
				storage.SegmentStoreOptions{Sync: storage.SyncEachBatch})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
		}
		return stores
	}

	cfg := fastCfg(0, 1)
	cfg.Maintainers = 2
	cfg.Stores = openStores()
	dc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	const n = 120
	for i := 0; i < n; i++ {
		dc.AppendAsync([]byte(fmt.Sprintf("durable-%d", i)), nil)
	}
	if got := dc.Quiesce(50*time.Millisecond, 10*time.Second); got != n {
		t.Fatalf("applied %d, want %d", got, n)
	}
	dc.Stop()
	for _, st := range cfg.Stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Restart over the same directories: every record recovered, ordering
	// state rebuilt, and new appends continue the sequence.
	cfg2 := fastCfg(0, 1)
	cfg2.Maintainers = 2
	cfg2.Stores = openStores()
	dc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	dc2.Start()
	t.Cleanup(dc2.Stop)

	recs, err := dc2.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	ack, err := dc2.Append([]byte("after-restart"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.LId != n+1 || ack.TOId != n+1 {
		t.Errorf("post-restart ids = %+v, want LId/TOId %d", ack, n+1)
	}
	recs, _ = dc2.LogRecords()
	if err := CheckCausalInvariant(recs); err != nil {
		t.Error(err)
	}
}

// TestTagReadsSurviveRestart: a datacenter restarted over its segment
// stores answers tag reads for the records written before the restart —
// the indexers are rebuilt from the recovered log, not left empty.
func TestTagReadsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	start := func() (*Datacenter, []storage.Store) {
		stores := make([]storage.Store, 2)
		for i := range stores {
			st, err := storage.OpenSegmentStore(filepath.Join(dir, fmt.Sprintf("m%d", i)), storage.SegmentStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
		}
		cfg := fastCfg(0, 1)
		cfg.Maintainers, cfg.Indexers, cfg.Stores = 2, 1, stores
		dc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dc.Start()
		return dc, stores
	}
	const n = 20
	// An applied record is findable once the stores' frontiers pass it,
	// which the pipeline does not wait for: poll up to a deadline.
	tagged := func(dc *Datacenter) int {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			recs, err := dc.Reader().Read(core.Rule{TagKey: "k", TagCmp: core.CmpEQ, TagValue: "v"})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == n || time.Now().After(deadline) {
				return len(recs)
			}
		}
	}
	dc, stores := start()
	for i := 0; i < n; i++ {
		if _, err := dc.Append([]byte(fmt.Sprintf("tagged-%d", i)), []core.Tag{{Key: "k", Value: "v"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tagged(dc); got != n {
		t.Fatalf("tag read before the restart found %d records, want %d", got, n)
	}
	dc.Stop()
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dc, _ = start()
	t.Cleanup(dc.Stop)
	if got := tagged(dc); got != n {
		t.Errorf("tag read after the restart found %d records, want %d", got, n)
	}
}

// TestRestartAfterCollectionKeepsTheHead: the stores keep the collected
// bound, so a datacenter restarted after collecting its whole log resumes
// at the bound — head, next LId, next TOId and collected positions —
// rather than walking its ranges from the first slot.
func TestRestartAfterCollectionKeepsTheHead(t *testing.T) {
	dir := t.TempDir()
	start := func() *Datacenter {
		stores := make([]storage.Store, 2)
		for i := range stores {
			st, err := storage.OpenSegmentStore(filepath.Join(dir, fmt.Sprintf("m%d", i)),
				storage.SegmentStoreOptions{MaxSegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
		}
		cfg := fastCfg(0, 1)
		cfg.Maintainers, cfg.Stores = 2, stores
		dc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dc.Start()
		t.Cleanup(func() {
			dc.Stop()
			for _, st := range stores {
				st.Close()
			}
		})
		return dc
	}
	const n = 6000
	dc := start()
	for i := 0; i < n; i++ {
		dc.AppendAsync([]byte(fmt.Sprintf("r%d", i)), nil)
	}
	if got := dc.Quiesce(50*time.Millisecond, 20*time.Second); got != n {
		t.Fatalf("applied %d, want %d", got, n)
	}
	if h, err := dc.Reader().WaitHead(n, 5*time.Second); err != nil || h != n {
		t.Fatalf("head %d, %v; want %d", h, err, n)
	}
	if _, bound, err := dc.CollectGarbage(0); err != nil || bound != n {
		t.Fatalf("CollectGarbage = bound %d, %v; want %d", bound, err, n)
	}
	dc.Stop()
	for _, st := range dc.cfg.Stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dc = start()
	if h, err := dc.Reader().WaitHead(n, 2*time.Second); err != nil || h != n {
		t.Fatalf("head after the restart %d, %v; want %d", h, err, n)
	}
	if h, err := dc.Head(); err != nil || h != n {
		t.Fatalf("Head() after the restart = %d, %v; want %d", h, err, n)
	}
	ack, err := dc.Append([]byte("after"), nil)
	if err != nil || ack.LId != n+1 || ack.TOId != n+1 {
		t.Fatalf("append after the restart = %+v, %v; want LId and TOId %d", ack, err, n+1)
	}
	// An applied record reaches the readable head one gossip round later.
	if h, err := dc.Reader().WaitHead(ack.LId, 5*time.Second); err != nil || h < ack.LId {
		t.Fatalf("head %d, %v; want it to reach LId %d", h, err, ack.LId)
	}
	if rec, err := dc.Reader().ReadLId(ack.LId); err != nil || string(rec.Body) != "after" {
		t.Fatalf("ReadLId(%d) after the restart = %v, %v", ack.LId, rec, err)
	}
	began := time.Now()
	if _, err := dc.Reader().ReadLId(n / 2); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("ReadLId of a collected position = %v, want ErrNoSuchRecord", err)
	}
	if d := time.Since(began); d > 50*time.Millisecond {
		t.Errorf("ReadLId of a collected position took %v", d)
	}
	if recs, err := dc.LogRecords(); err != nil || len(recs) != 1 || recs[0].LId != n+1 {
		t.Errorf("LogRecords after the restart = %d records, %v; want the one at LId %d", len(recs), err, n+1)
	}
}

// TestRestartAfterCollectionKeepsTheTOIds: two datacenters, and the one on
// segment stores restarts after collecting its whole log. Its stores keep,
// with the bound, the TOIds the collected prefix covered, so each side's
// next record takes the TOId after the last the other has seen — and is
// applied there, not dropped as a duplicate or parked behind a TOId that
// will never come.
func TestRestartAfterCollectionKeepsTheTOIds(t *testing.T) {
	dir := t.TempDir()
	startA := func() *Datacenter {
		stores := make([]storage.Store, 2)
		for i := range stores {
			st, err := storage.OpenSegmentStore(filepath.Join(dir, fmt.Sprintf("m%d", i)),
				storage.SegmentStoreOptions{MaxSegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
		}
		t.Cleanup(func() { // after the datacenter stops
			for _, st := range stores {
				st.Close()
			}
		})
		cfg := fastCfg(0, 2)
		cfg.Maintainers, cfg.Stores = 2, stores
		return startDC(t, cfg)
	}
	a, b := startA(), startDC(t, fastCfg(1, 2))
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())
	const na, nb = 300, 200
	for i := 0; i < na; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
	}
	for i := 0; i < nb; i++ {
		b.AppendAsync([]byte(fmt.Sprintf("b%d", i)), nil)
	}
	if !a.WaitForTOId(1, nb, 10*time.Second) || !b.WaitForTOId(0, na, 10*time.Second) {
		t.Fatalf("never converged: A %v, B %v", a.Applied(), b.Applied())
	}
	// A may collect everything once it knows B has everything.
	for deadline := time.Now().Add(5 * time.Second); a.ATable().Get(1, 0) < na || a.ATable().Get(1, 1) < nb; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("A's row for B stuck at [%d %d]", a.ATable().Get(1, 0), a.ATable().Get(1, 1))
		}
	}
	if h, err := a.Reader().WaitHead(na+nb, 5*time.Second); err != nil || h != na+nb {
		t.Fatalf("A's head %d, %v; want %d", h, err, na+nb)
	}
	if _, bound, err := a.CollectGarbage(0); err != nil || bound != na+nb {
		t.Fatalf("CollectGarbage = bound %d, %v; want %d", bound, err, na+nb)
	}
	a.Stop()
	for _, st := range a.cfg.Stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	a = startA()
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())
	if got := a.Applied(); got.Get(0) != na || got.Get(1) != nb {
		t.Fatalf("A's applied vector after the restart = %v, want [%d %d]", got, na, nb)
	}
	ack, err := a.Append([]byte("a-after"), nil)
	if err != nil || ack.TOId != na+1 || ack.LId != na+nb+1 {
		t.Fatalf("A's append after the restart = %+v, %v; want TOId %d at LId %d", ack, err, na+1, na+nb+1)
	}
	if !b.WaitForTOId(0, na+1, 5*time.Second) {
		t.Errorf("B never applied A's TOId %d: B at %v", na+1, b.Applied())
	}
	if _, err := b.Append([]byte("b-after"), nil); err != nil {
		t.Fatal(err)
	}
	if !a.WaitForTOId(1, nb+1, 5*time.Second) {
		t.Errorf("A never applied B's TOId %d: A at %v", nb+1, a.Applied())
	}
}

// TestRestartFinishesAnInterruptedCollection: a crash between two stores'
// collections leaves one store behind the bound. The restart brings it up
// to the bound, so its positions there read as absent like the others'.
func TestRestartFinishesAnInterruptedCollection(t *testing.T) {
	dir := t.TempDir()
	open := func() []storage.Store {
		stores := make([]storage.Store, 2)
		for i := range stores {
			st, err := storage.OpenSegmentStore(filepath.Join(dir, fmt.Sprintf("m%d", i)), storage.SegmentStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			stores[i] = st
		}
		return stores
	}
	cfg := fastCfg(0, 1)
	cfg.Maintainers, cfg.Stores = 2, open()
	dc := startDC(t, cfg)
	for i := 0; i < 40; i++ {
		if _, err := dc.Append([]byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Stored once readable: Stop drops what is still in flight.
	if h, err := dc.Reader().WaitHead(40, 5*time.Second); err != nil || h != 40 {
		t.Fatalf("head %d, %v; want 40", h, err)
	}
	dc.Stop()
	// The collection of LIds 1..32 reached the first store only; the second
	// holds 9..16 and 25..32 still.
	if _, err := cfg.Stores[0].GC(32, []core.Dep{{DC: 0, TOId: 32}}); err != nil {
		t.Fatal(err)
	}
	for _, st := range cfg.Stores {
		st.Close()
	}

	cfg.Stores = open()
	dc = startDC(t, cfg)
	if bound, covered := cfg.Stores[1].Collected(); bound != 32 || len(covered) != 1 || covered[0].TOId != 32 {
		t.Errorf("the lagging store's bound after the restart = %d %v, want 32 [{0 32}]", bound, covered)
	}
	for _, lid := range []uint64{9, 32} {
		if _, err := dc.Reader().ReadLId(lid); !errors.Is(err, core.ErrNoSuchRecord) {
			t.Errorf("ReadLId(%d) below the bound after the restart = %v, want ErrNoSuchRecord", lid, err)
		}
	}
	if recs, err := dc.LogRecords(); err != nil || len(recs) != 8 || recs[0].LId != 33 {
		t.Errorf("LogRecords after the restart = %d records, %v; want LIds 33..40", len(recs), err)
	}
}

// TestCollectedPositionsAbsentOnEveryReadPath: once collected, a position
// is absent to every read path alike — tag reads (batched and
// single-record), range reads served from the tail ring, and single reads —
// and a read whose matches straddle the bound returns exactly the live
// records.
func TestCollectedPositionsAbsentOnEveryReadPath(t *testing.T) {
	cfg := fastCfg(0, 1)
	cfg.Indexers = 1
	dc := startDC(t, cfg)
	const n = 12000
	tags := []core.Tag{{Key: "k", Value: "v"}}
	for i := 0; i < n; i++ {
		dc.AppendAsync([]byte(fmt.Sprintf("t%d", i)), tags)
	}
	if got := dc.Quiesce(50*time.Millisecond, 20*time.Second); got != n {
		t.Fatalf("applied %d, want %d", got, n)
	}
	if h, err := dc.Reader().WaitHead(n, 5*time.Second); err != nil || h != n {
		t.Fatalf("head %d, %v; want %d", h, err, n)
	}
	// Each collection leaves the live records, from bound+1 to n.
	live := func(what string, recs []*core.Record, err error, from, to uint64) {
		t.Helper()
		if err != nil || len(recs) != int(to+1-from) || (len(recs) > 0 && (recs[0].LId != from || recs[len(recs)-1].LId != to)) {
			t.Errorf("%s after collection = %d records, %v; want LIds %d..%d", what, len(recs), err, from, to)
		}
	}
	rule := core.Rule{TagKey: "k", TagCmp: core.CmpEQ, TagValue: "v"}
	for _, c := range []struct{ keepAfter, bound uint64 }{{n/2 + 1, n / 2}, {0, n}} {
		if _, bound, err := dc.CollectGarbage(c.keepAfter); err != nil || bound != c.bound {
			t.Fatalf("CollectGarbage(%d) = bound %d, %v; want %d", c.keepAfter, bound, err, c.bound)
		}
		recs, err := dc.Reader().Read(rule)
		live("tag read", recs, err, c.bound+1, n)
		limited := rule
		limited.Limit = 1
		recs, err = dc.Reader().Read(limited)
		live("tag read with Limit 1", recs, err, c.bound+1, min(c.bound+1, n))
		recs, err = dc.Reader().ReadRange(c.bound+1, c.bound+10)
		live("ReadRange above the bound", recs, err, c.bound+1, min(c.bound+10, n))
		// A window wholly collected reads as absent: no records, or the
		// position's ErrNoSuchRecord.
		if recs, err := dc.Reader().ReadRange(c.bound-9, c.bound); (err != nil && !errors.Is(err, core.ErrNoSuchRecord)) || len(recs) > 0 {
			t.Errorf("ReadRange(%d, %d) after collection = %d records, %v; want none", c.bound-9, c.bound, len(recs), err)
		}
		if _, err := dc.Reader().ReadLId(c.bound); !errors.Is(err, core.ErrNoSuchRecord) {
			t.Errorf("ReadLId(%d) after collection = %v, want ErrNoSuchRecord", c.bound, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumDCs: 0}); err == nil {
		t.Error("NumDCs 0 accepted")
	}
	if _, err := New(Config{Self: 5, NumDCs: 2}); err == nil {
		t.Error("Self out of range accepted")
	}
	if _, err := New(Config{NumDCs: 1, Maintainers: 2, Stores: []storage.Store{storage.NewMemStore()}}); err == nil {
		t.Error("store/maintainer count mismatch accepted")
	}
}

func TestMachineNames(t *testing.T) {
	if got := machineName("Batcher", 0, 1); got != "Batcher" {
		t.Errorf("single machine name = %q", got)
	}
	if got := machineName("Batcher", 1, 3); got != "Batcher 2" {
		t.Errorf("multi machine name = %q", got)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	dc, err := New(fastCfg(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	dc.Start() // second start is a no-op
	if _, err := dc.Append([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	dc.Stop()
	dc.Stop() // second stop is a no-op
	if _, err := dc.Append([]byte("y"), nil); err == nil {
		t.Error("append after stop succeeded")
	}
}
