package chariots

import (
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
