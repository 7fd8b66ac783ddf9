package flstore

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/rpc"
)

func batchOf(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{Body: []byte("x")}
	}
	return recs
}

// steeredClients builds three in-process maintainers, R = 3, round 8, and
// k clients — k sessions. With shared connections the clients reach each
// maintainer over one connection, as k actors of one process do, and steer
// by one view; otherwise each has connections, and a view, of its own, as
// clients in k processes do.
func steeredClients(t *testing.T, k int, shared bool) (Placement, []*Client) {
	t.Helper()
	p := Placement{NumMaintainers: 3, BatchSize: 8}
	srvs := make([]*rpc.Server, 3)
	conns := make([]rpc.Client, 3)
	for i := range srvs {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: 3})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = rpc.NewServer()
		ServeMaintainer(srvs[i], m)
		conns[i] = rpc.NewLocalClient(srvs[i])
	}
	cls := make([]*Client, k)
	for i := range cls {
		handles := make([]MaintainerAPI, 3)
		for j, conn := range conns {
			if !shared {
				conn = rpc.NewLocalClient(srvs[j])
			}
			handles[j] = NewMaintainerClient(conn)
		}
		c, err := NewReplicatedDirectClient(p, handles, nil, 3, replica.AckMajority)
		if err != nil {
			t.Fatal(err)
		}
		cls[i] = c
	}
	return p, cls
}

// TestAppendsFillTheHead: the head of the log (§5.4) stays within one round
// of the highest acknowledged LId while two sessions alternate. The first
// opens with one batch in each range, which leaves every range half a
// round ahead of a dense log; appends sent round robin keep those holes
// open for good, appends sent to the range holding the head back close
// them.
func TestAppendsFillTheHead(t *testing.T) {
	p, cls := steeredClients(t, 2, true)
	var top uint64
	appendTo := func(c *Client) {
		lids, err := c.AppendBatch(batchOf(4))
		if err != nil {
			t.Fatal(err)
		}
		top = max(top, lids[len(lids)-1])
	}
	for i := 0; i < 3; i++ {
		appendTo(cls[0])
	}
	for pair := 0; pair < 24; pair++ {
		appendTo(cls[0])
		appendTo(cls[1])
		head, err := cls[0].HeadExact()
		if err != nil {
			t.Fatal(err)
		}
		if head+p.BatchSize < top {
			t.Fatalf("pair %d: head %d, highest acknowledged LId %d: more than a round (%d) apart",
				pair, head, top, p.BatchSize)
		}
	}
}

// TestSteeredAppendsStayBalanced: steering by frontier does not herd,
// whether the sessions share a view or each has its own. Four closed-loop
// sessions appending 64-record batches leave each range's acting primary
// within a tenth of an even third of the appends.
func TestSteeredAppendsStayBalanced(t *testing.T) {
	for _, shared := range []bool{true, false} {
		t.Run(map[bool]string{true: "shared", false: "separate"}[shared], func(t *testing.T) {
			testAppendsBalanced(t, shared)
		})
	}
}

func testAppendsBalanced(t *testing.T, shared bool) {
	const sessions, each = 4, 30
	p, cls := steeredClients(t, sessions, shared)
	var mu sync.Mutex
	var perRange [3]int
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lids, err := c.AppendBatch(batchOf(64))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				perRange[p.Owner(lids[0])]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for r, n := range perRange {
		if share := float64(n) / (sessions * each); share < 0.9/3 || share > 1.1/3 {
			t.Errorf("range %d took %d of %d appends (%.3f), want 1/3 ± 10%%: %v", r, n, sessions*each, share, perRange)
		}
	}
}

// deliveryWaits drives two appending sessions in a seeded random order, as
// two independent appenders at one rate interleave, and returns the 90th
// percentile over records of how many appends it took the head of the log
// (read by a third session) to pass each record.
func deliveryWaits(t *testing.T, seed int64, appendBy func(s int) []uint64, head func() uint64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pending []uint64 // acknowledged LIds not yet delivered, by append
	var at []int         // the append each pending LId was acknowledged at
	var waits []int
	for k := 0; k < 300; k++ {
		for _, lid := range appendBy(rng.Intn(2)) {
			pending, at = append(pending, lid), append(at, k)
		}
		h := head()
		for i := 0; i < len(pending); {
			if pending[i] <= h {
				waits = append(waits, k-at[i])
				pending, at = append(pending[:i], pending[i+1:]...), append(at[:i], at[i+1:]...)
				continue
			}
			i++
		}
	}
	for range pending {
		waits = append(waits, 300)
	}
	sort.Ints(waits)
	return waits[len(waits)*9/10]
}

// TestSeparateSessionsNoWorseThanRoundRobin: sessions that share a view
// deliver every append at once; sessions that each have their own, and so
// cannot see each other's appends, deliver no later than round robin from
// range 0 did.
func TestSeparateSessionsNoWorseThanRoundRobin(t *testing.T) {
	run := func(seed int64, shared bool, rr bool) int {
		_, cls := steeredClients(t, 3, shared)
		var cursor [2]int
		return deliveryWaits(t, seed, func(s int) []uint64 {
			var lids []uint64
			var err error
			if rr {
				lids, err = cls[s].Session().AppendRange(cursor[s]%3, batchOf(4))
				cursor[s]++
			} else {
				lids, err = cls[s].Session().Append(batchOf(4))
			}
			if err != nil {
				t.Fatal(err)
			}
			return lids
		}, func() uint64 {
			h, err := cls[2].HeadExact()
			if err != nil {
				t.Fatal(err)
			}
			return h
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		if got := run(seed, true, false); got != 0 {
			t.Errorf("seed %d: shared view: p90 wait %d appends, want 0", seed, got)
		}
		separate, roundRobin := run(seed, false, false), run(seed, false, true)
		t.Logf("seed %d: p90 wait in appends: separate views %d, round robin %d", seed, separate, roundRobin)
		if separate > roundRobin {
			t.Errorf("seed %d: separate views wait %d appends at p90, round robin %d", seed, separate, roundRobin)
		}
	}
}
