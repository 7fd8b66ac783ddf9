package chariots_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/msgfutures"
)

// Message Futures' commit wait reads the Awareness Table: a transaction is
// decidable once every datacenter is known to have seen its record. That
// knowledge now travels on change-driven table shipments; with the
// anti-entropy tick out of reach, two disjoint transactions started at the
// two datacenters must still both commit (msgfutures'
// TestTwoDCCommitNoConflict, minus every periodic table shipment).
func TestMsgFuturesCommitsOnChangeDrivenTables(t *testing.T) {
	var dcs [2]*chariots.Datacenter
	var mgrs [2]*msgfutures.Manager
	for i := range dcs {
		dc, err := chariots.New(chariots.Config{Self: core.DCID(i), NumDCs: 2, Maintainers: 2, PlacementBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		dc.SetTableAntiEntropy(time.Hour)
		dcs[i] = dc
	}
	dcs[0].ConnectTo(1, dcs[1].Receivers())
	dcs[1].ConnectTo(0, dcs[0].Receivers())
	for i, dc := range dcs {
		dc.Start()
		t.Cleanup(dc.Stop)
		mgrs[i] = msgfutures.NewManager(dc)
		mgrs[i].CommitWaitTimeout = 10 * time.Second
		t.Cleanup(mgrs[i].Stop)
	}

	var wg sync.WaitGroup
	var errs [2]error
	for i, key := range []string{"x", "y"} {
		tx := mgrs[i].Begin()
		tx.Write(key, "v")
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = tx.Commit() }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("transaction at dc%d: %v", i, err)
		}
	}
}
