package flstore

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// openDurableMaintainer builds a maintainer over a real segment store in
// dir (durability-on-return) with the given replication factor.
func openDurableMaintainer(t *testing.T, dir string, idx, n, r int) *Maintainer {
	t.Helper()
	st, err := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{Sync: storage.SyncEachBatch})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(MaintainerConfig{
		Index:       idx,
		Placement:   Placement{NumMaintainers: n, BatchSize: 2},
		Replication: r,
		Store:       st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDurableWatermarkTracksAppends: on a durable store the watermark
// follows the frontier — every acknowledged append is fsynced before
// AppendBatch returns — and it survives restart on the same directory.
func TestDurableWatermarkTracksAppends(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMaintainer(t, dir, 0, 3, 1)
	for i := 0; i < 5; i++ {
		if _, err := m.Append([]*core.Record{{Body: []byte("d")}}); err != nil {
			t.Fatal(err)
		}
	}
	front, err := m.RangeFrontier(0)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := m.DurableWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm != front {
		t.Fatalf("durable watermark %d != frontier %d on a durable store", wm, front)
	}
	if err := m.Store().Close(); err != nil {
		t.Fatal(err)
	}
	// Restart: the recovery scan read everything back off stable storage,
	// so the durable frontier resumes at the dense prefix.
	m2 := openDurableMaintainer(t, dir, 0, 3, 1)
	defer m2.Store().Close()
	wm2, err := m2.DurableWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm2 != front {
		t.Fatalf("durable watermark after restart = %d, want %d", wm2, front)
	}
}

// TestDurableWatermarkVolatileStoreReportsZero: a MemStore-backed
// maintainer never advances (or advertises) a durable watermark.
func TestDurableWatermarkVolatileStoreReportsZero(t *testing.T) {
	m, err := NewMaintainer(MaintainerConfig{Index: 0, Placement: Placement{NumMaintainers: 3, BatchSize: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]*core.Record{{Body: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	wm, err := m.DurableWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 0 {
		t.Fatalf("volatile store reported durable watermark %d, want 0", wm)
	}
	if _, err := m.DurableWatermark(1); err == nil {
		t.Fatal("DurableWatermark for an unhosted range succeeded")
	}
}

// TestGossipVecsSpreadsDurability: the dual-vector gossip RPC carries each
// member's durable frontier to its peers, so every maintainer learns how
// far the others' fsync horizons reach — over the same wire path the
// next-unfilled gossip uses.
func TestGossipVecsSpreadsDurability(t *testing.T) {
	dir := t.TempDir()
	const n = 3
	ms := make([]*Maintainer, n)
	for i := 0; i < n; i++ {
		ms[i] = openDurableMaintainer(t, filepath.Join(dir, "m"+string(rune('0'+i))), i, n, 1)
		defer ms[i].Store().Close()
	}
	// Uneven progress: maintainer 0 appends 4, maintainer 2 appends 1.
	for i := 0; i < 4; i++ {
		if _, err := ms[0].Append([]*core.Record{{Body: []byte("a")}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ms[2].Append([]*core.Record{{Body: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	// Serve each maintainer over in-process RPC and gossip one round from
	// every node, as the Gossiper would.
	peers := make([]MaintainerAPI, n)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		ServeMaintainer(srv, ms[i])
		peers[i] = NewMaintainerClient(rpc.NewLocalClient(srv))
	}
	for i := 0; i < n; i++ {
		g := NewGossiper(ms[i], peers, 0)
		g.Round()
	}
	want0, _ := ms[0].DurableWatermark(0)
	want2, _ := ms[2].DurableWatermark(2)
	for i := 0; i < n; i++ {
		dv := ms[i].DurableVec()
		if dv[0] != want0 {
			t.Errorf("maintainer %d durVec[0] = %d, want %d", i, dv[0], want0)
		}
		if dv[2] != want2 {
			t.Errorf("maintainer %d durVec[2] = %d, want %d", i, dv[2], want2)
		}
	}
}

// TestReplicaAppendAdvancesDurableWatermark: a follower's durable
// watermark for a followed range advances as replica copies land on its
// own durable store — the per-member signal the quorum-durability status
// view aggregates.
func TestReplicaAppendAdvancesDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	// Maintainer 1 follows range 0 (R=2 groups are {owner, owner+1}).
	m := openDurableMaintainer(t, filepath.Join(dir, "m1"), 1, 3, 2)
	defer m.Store().Close()
	// Copies arrive out of order: slot 1 first (parks), then slot 0
	// (drains both).
	p := Placement{NumMaintainers: 3, BatchSize: 2}
	lid0 := p.LIdOfSlot(0, 0)
	lid1 := p.LIdOfSlot(0, 1)
	if err := m.ReplicaAppend([]*core.Record{{LId: lid1, TOId: lid1, Body: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if wm, _ := m.DurableWatermark(0); wm != lid0 {
		t.Fatalf("parked copy advanced durable watermark to %d, want %d", wm, lid0)
	}
	if err := m.ReplicaAppend([]*core.Record{{LId: lid0, TOId: lid0, Body: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if wm, _ := m.DurableWatermark(0); wm != p.LIdOfSlot(0, 2) {
		t.Fatalf("durable watermark = %d after both copies, want %d", wm, p.LIdOfSlot(0, 2))
	}
}

// TestRecoveryRepostsTags: a maintainer reopened over its store posts the
// recovered records' tags to its indexer, so a restarted deployment — whose
// indexers start empty — still finds every record written before.
func TestRecoveryRepostsTags(t *testing.T) {
	dir := t.TempDir()
	p := Placement{NumMaintainers: 1, BatchSize: 8}
	open := func() (*Maintainer, *Client) {
		st, err := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndexer(nil)
		m, err := NewMaintainer(MaintainerConfig{Placement: p, Store: st, Indexers: []IndexerAPI{ix}})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewDirectClient(p, []MaintainerAPI{m}, []IndexerAPI{ix})
		if err != nil {
			t.Fatal(err)
		}
		return m, c
	}
	tagged := func(c *Client) int {
		recs, err := c.Read(core.Rule{TagKey: "k", TagCmp: core.CmpEQ, TagValue: "v"})
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	const n = 20
	m, c := open()
	for i := 0; i < n; i++ {
		if _, err := m.Append([]*core.Record{{Body: []byte("t"), Tags: []core.Tag{{Key: "k", Value: "v"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tagged(c); got != n {
		t.Fatalf("tag read before the restart found %d records, want %d", got, n)
	}
	if err := m.Store().Close(); err != nil {
		t.Fatal(err)
	}
	m, c = open()
	defer m.Store().Close()
	if got := tagged(c); got != n {
		t.Errorf("tag read after the restart found %d records, want %d", got, n)
	}
}
