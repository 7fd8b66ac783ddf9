package flstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// TestSeededKillRestartCatchUp is the acceptance scenario for replicated
// maintainers: a 3-member replica group under a seeded fault schedule loses
// maintainer 1 (its links severed mid-run), ack-majority appends keep
// succeeding through the survivors, reads of the dead member's range fail
// over, and the restarted maintainer — reopened on the same on-disk segment
// store — catches up over the pull protocol and serves reads again. The
// whole run is deterministic: the same seed replays the same per-link event
// sequence byte for byte.
func TestSeededKillRestartCatchUp(t *testing.T) {
	fpA := runKillRestartScenario(t, 42)
	fpB := runKillRestartScenario(t, 42)
	if fpA != fpB {
		t.Errorf("same seed diverged:\nrun A:\n%srun B:\n%s", fpA, fpB)
	}
	if fpA == "" {
		t.Error("scenario produced no fault events")
	}
	if fpC := runKillRestartScenario(t, 43); fpC == fpA {
		t.Error("different seeds produced identical event logs; schedule is not seed-driven")
	}
}

// runKillRestartScenario executes one full kill → degraded service →
// restart → catch-up pass and returns the controller's canonical event
// fingerprint. Maintainer 1 runs on a real segment store in a temp dir so
// the restart exercises disk recovery, not just in-memory state.
func runKillRestartScenario(t *testing.T, seed uint64) string {
	t.Helper()
	const n, r = 3, 3
	p := Placement{NumMaintainers: n, BatchSize: 2}
	// DelayP seasons the schedule with seed-dependent (but no-op: Sleep is
	// stubbed) events so fingerprints actually vary by seed without
	// perturbing behavior; drops are off to keep counts exact.
	ctl := faultinject.New(faultinject.Options{
		Seed: seed, DelayP: 0.3, Delay: time.Microsecond, Sleep: func(time.Duration) {},
	})
	dir := t.TempDir()
	openStore := func() *storage.SegmentStore {
		s, err := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{Sync: storage.SyncEachBatch})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mk := func(i int, st storage.Store) (*Maintainer, *rpc.Server) {
		cfg := MaintainerConfig{Index: i, Placement: p, Replication: r, Store: st}
		m, err := NewMaintainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		return m, srv
	}
	seg := openStore()
	ms := make([]*Maintainer, n)
	srvs := make([]*rpc.Server, n)
	for i := 0; i < n; i++ {
		var st storage.Store
		if i == 1 {
			st = seg
		}
		ms[i], srvs[i] = mk(i, st)
	}
	wire := func(i int) MaintainerAPI {
		return NewMaintainerClient(ctl.Wrap(fmt.Sprintf("c->m%d", i), rpc.NewLocalClient(srvs[i])))
	}
	client, err := NewReplicatedDirectClient(p, []MaintainerAPI{wire(0), wire(1), wire(2)}, nil, r, replica.AckMajority)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	appendN := func(tag string, count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if _, err := client.Append([]byte(fmt.Sprintf("%s-%d", tag, i)), nil); err != nil {
				t.Fatalf("append %s-%d: %v", tag, i, err)
			}
		}
		total += count
	}

	appendN("pre", 9)

	// Kill: sever the client's link to maintainer 1 mid-run. Ack-majority
	// appends must keep succeeding — the session evicts the member and
	// retargets its range to the group's next acting primary.
	ctl.Sever("c->m1")
	appendN("during", 15)
	if st := client.Session().Health().State(1); st != replica.Evicted {
		t.Fatalf("maintainer 1 state after kill = %v, want evicted", st)
	}
	// Every acknowledged position stays readable; range-1 reads fail over.
	head, err := client.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	if head == 0 {
		t.Fatal("head did not advance")
	}
	rangeOneReads := 0
	for lid := uint64(1); lid <= head; lid++ {
		if _, err := client.ReadLId(lid); err != nil {
			t.Errorf("read of lid %d with maintainer 1 dead: %v", lid, err)
		}
		if p.Owner(lid) == 1 {
			rangeOneReads++
		}
	}
	if rangeOneReads == 0 {
		t.Fatal("no range-1 positions below head; scenario never exercised failover reads")
	}

	// Restart: reopen the same directory (disk recovery), rebuild the
	// maintainer and its server, heal the link, and rewire the client.
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg2 := openStore()
	ms[1], srvs[1] = mk(1, seg2)
	ctl.Heal("c->m1")
	if err := client.SetMaintainer(1, wire(1)); err != nil {
		t.Fatal(err)
	}

	// Catch up and readmit. The member missed exactly the 15 "during"
	// records (its pre-kill state survived on disk).
	moved, err := client.Session().Rejoin(1, 4)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if moved != 15 {
		t.Errorf("catch-up transferred %d records, want 15", moved)
	}
	if st := client.Session().Health().State(1); st != replica.Healthy {
		t.Errorf("maintainer 1 state after rejoin = %v, want healthy", st)
	}
	// The restarted member serves reads for its own range directly.
	for lid := uint64(1); lid <= head; lid++ {
		if p.Owner(lid) != 1 {
			continue
		}
		if _, err := ms[1].Read(lid); err != nil {
			t.Errorf("restarted maintainer read of lid %d: %v", lid, err)
		}
	}

	// Post-rejoin appends fan out to the readmitted member again; with
	// R = N every member ends up holding every record.
	appendN("post", 6)
	if got := ms[1].Store().Len(); got != total {
		t.Errorf("restarted maintainer stores %d records, want %d (catch-up + resumed fan-out)", got, total)
	}
	for _, m := range ms {
		if got := m.Store().Len(); got != total {
			t.Errorf("maintainer %d stores %d records, want %d", m.Index(), got, total)
		}
	}
	return ctl.Fingerprint()
}

// TestMultiReadFailsOverFromCorruptCopy scribbles over a sealed segment of
// one member of a fully replicated group. That member's MultiRead used to
// skip every store error as "absent here", so a corrupt copy looked like a
// position not yet stored, the answer silently shrank and the member was
// never failed over from. It now fails with the store's error, the session
// reads the batch from the next replica, and ReadLIds returns every record.
func TestMultiReadFailsOverFromCorruptCopy(t *testing.T) {
	p := Placement{NumMaintainers: 3, BatchSize: 4}
	var ms []*Maintainer
	var apis []MaintainerAPI
	var dirs []string
	for i := 0; i < p.NumMaintainers; i++ {
		dirs = append(dirs, t.TempDir())
		st, err := storage.OpenSegmentStore(dirs[i], storage.SegmentStoreOptions{MaxSegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// A four-record tail ring: reads below the frontier go to the store.
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: 3, Store: st, tailCacheSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		ms, apis = append(ms, m), append(apis, m)
	}
	c, err := NewReplicatedDirectClient(p, apis, nil, 3, replica.AckAll)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.Session().EnableMetrics(reg)
	var lids []uint64
	for i := 0; i < 48; i++ {
		lid, err := c.Append([]byte(fmt.Sprintf("a record body of some length, number %02d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	// Member 0's oldest segment is sealed and holds the first records of
	// range 0, whose reads try member 0 first.
	segs, _ := filepath.Glob(filepath.Join(dirs[0], "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("member 0 has %d segments, want a sealed one", len(segs))
	}
	sort.Strings(segs)
	st, err := os.Stat(segs[0])
	if err == nil {
		err = os.WriteFile(segs[0], bytes.Repeat([]byte{0xA5}, int(st.Size())), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ms[0].MultiRead([]uint64{1, 2}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("MultiRead over a scribbled entry = %d records, %v; want ErrCorrupt", len(recs), err)
	}
	recs, err := c.ReadLIds(lids)
	if err != nil || len(recs) != len(lids) {
		t.Fatalf("ReadLIds = %d records, %v; want all %d", len(recs), err, len(lids))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("a record body of some length, number %02d", i); r.LId != lids[i] || string(r.Body) != want {
			t.Fatalf("record %d = LId %d %q, want LId %d %q", i, r.LId, r.Body, lids[i], want)
		}
	}
	if s := reg.Snapshot().Find("replica_read_failovers_total", nil); s == nil || s.Value == 0 {
		t.Errorf("read failovers = %+v, want the group to have been read from a second member", s)
	}
}
