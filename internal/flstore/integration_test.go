package flstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
)

// buildTCPDeployment stands up a full FLStore deployment over loopback
// TCP: n maintainers, k indexers, a controller, with gossip running. opts
// configure the returned client.
func buildTCPDeployment(t *testing.T, n, k int, batch uint64, opts ...ClientOption) (*Client, []*Maintainer, []*Gossiper) {
	t.Helper()
	p := Placement{NumMaintainers: n, BatchSize: batch}

	// Indexers first: maintainers need their clients.
	var indexerAddrs []string
	var indexerAPIs []IndexerAPI
	for i := 0; i < k; i++ {
		ix := NewIndexer(nil)
		srv := rpc.NewServer()
		ServeIndexer(srv, ix)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		indexerAddrs = append(indexerAddrs, addr.String())
		rc, err := rpc.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		indexerAPIs = append(indexerAPIs, NewIndexerClient(rc))
	}

	var maintainers []*Maintainer
	var maintainerAddrs []string
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{
			Index: i, Placement: p, Indexers: indexerAPIs, EnforceHead: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		maintainers = append(maintainers, m)
		maintainerAddrs = append(maintainerAddrs, addr.String())
	}

	// Gossip wiring: each maintainer dials its peers.
	var gossipers []*Gossiper
	for i, m := range maintainers {
		peers := make([]MaintainerAPI, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			rc, err := rpc.Dial(maintainerAddrs[j])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rc.Close() })
			peers[j] = NewMaintainerClient(rc)
		}
		g := NewGossiper(m, peers, time.Millisecond)
		g.Start()
		t.Cleanup(g.Stop)
		gossipers = append(gossipers, g)
	}

	ctrl, err := NewController(Config{
		Placement:       p,
		MaintainerAddrs: maintainerAddrs,
		IndexerAddrs:    indexerAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrlSrv := rpc.NewServer()
	ServeController(ctrlSrv, ctrl)
	ctrlAddr, err := ctrlSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrlSrv.Close() })

	ctrlConn, err := rpc.Dial(ctrlAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrlConn.Close() })
	client, err := NewClient(NewControllerClient(ctrlConn), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client, maintainers, gossipers
}

func TestIntegrationAppendReadOverTCP(t *testing.T) {
	client, _, _ := buildTCPDeployment(t, 3, 2, 4, WithReadRetries(2), WithRetryBackoff(time.Millisecond))

	var lids []uint64
	for i := 0; i < 30; i++ {
		lid, err := client.Append([]byte(fmt.Sprintf("record-%d", i)),
			[]core.Tag{{Key: "seq", Value: fmt.Sprint(i)}})
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	// LIds must be unique.
	seen := map[uint64]bool{}
	for _, lid := range lids {
		if seen[lid] {
			t.Fatalf("duplicate LId %d", lid)
		}
		seen[lid] = true
	}
	// Read back every record at or below the head of the log; positions
	// above HL are legitimately unreadable (load has stopped, so the
	// next maintainer slot below them is a permanent gap, §5.4).
	head, err := client.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	if head == 0 {
		t.Fatal("head did not advance")
	}
	readable := 0
	for i, lid := range lids {
		if lid > head {
			if _, err := client.ReadLId(lid); !errors.Is(err, core.ErrPastHead) {
				t.Errorf("ReadLId(%d) above head = %v, want ErrPastHead", lid, err)
			}
			continue
		}
		rec, err := client.ReadLId(lid)
		if err != nil {
			t.Fatalf("ReadLId(%d): %v", lid, err)
		}
		if want := fmt.Sprintf("record-%d", i); string(rec.Body) != want {
			t.Errorf("body = %q, want %q", rec.Body, want)
		}
		readable++
	}
	if readable < 20 {
		t.Errorf("only %d of 30 records below head; head math looks wrong", readable)
	}
}

func TestIntegrationHeadConvergesViaGossip(t *testing.T) {
	client, maintainers, _ := buildTCPDeployment(t, 3, 0, 4)
	// Round-robin appends fill all maintainers roughly evenly.
	for i := 0; i < 36; i++ {
		if _, err := client.Append([]byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	exact, err := client.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	if exact != 36 {
		t.Fatalf("HeadExact = %d, want 36 (36 appends round-robin over 3 maintainers, batch 4)", exact)
	}
	// Every maintainer's gossiped head must converge to the exact head.
	deadline := time.Now().Add(2 * time.Second)
	for _, m := range maintainers {
		for {
			h, _ := m.Head()
			if h == exact {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("maintainer %d head stuck at %d, want %d", m.Index(), h, exact)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestIntegrationTagReadThroughIndexer(t *testing.T) {
	client, _, _ := buildTCPDeployment(t, 2, 2, 3)
	tagged := func(v int) []*core.Record {
		return []*core.Record{{Body: []byte(fmt.Sprintf("v=%d", v)), Tags: []core.Tag{{Key: "key-a", Value: fmt.Sprint(v)}}}}
	}
	// Single-record appends fill the log densely: v=1..8 end at LId 8,
	// where maintainer 0's range is next at 9 and maintainer 1's at 10.
	for v := 1; v <= 8; v++ {
		if _, err := client.AppendBatch(tagged(v)); err != nil {
			t.Fatal(err)
		}
	}
	// v=9 goes to maintainer 1's range on purpose: LId 10, above the head.
	if lids, err := client.Session().AppendRange(1, tagged(9)); err != nil || lids[0] != 10 {
		t.Fatalf("AppendRange = %v, %v; want LId 10", lids, err)
	}
	recs, err := client.Read(core.Rule{TagKey: "key-a", MostRecent: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Body) != "v=8" {
		t.Fatalf("most recent = %+v", recs)
	}
	// Value predicate through the indexer; only v=8 is below the head.
	recs, err = client.Read(core.Rule{TagKey: "key-a", TagCmp: core.CmpGE, TagValue: "8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Body) != "v=8" {
		t.Errorf("key-a >= 8 returned %d records, want just v=8 (v=9 is past the head)", len(recs))
	}
}

func TestIntegrationScanRead(t *testing.T) {
	client, _, _ := buildTCPDeployment(t, 2, 0, 3)
	for i := 0; i < 12; i++ {
		client.Append([]byte(fmt.Sprint(i)), nil)
	}
	recs, err := client.Read(core.Rule{MinLId: 4, MaxLId: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("scan returned %d records, want 6", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LId <= recs[i-1].LId {
			t.Fatal("scan results not ascending")
		}
	}
}

func TestIntegrationReadPastHeadRetriesThenFails(t *testing.T) {
	client, _, _ := buildTCPDeployment(t, 2, 0, 5, WithReadRetries(2), WithRetryBackoff(time.Millisecond))
	// Only maintainer 0 has records; LId 6 (owned by maintainer 1)
	// doesn't exist and the head can't pass it.
	client.Maintainers()[0].Append([]*core.Record{{Body: []byte("x")}})
	_, err := client.ReadLId(6)
	if !errors.Is(err, core.ErrPastHead) {
		t.Errorf("read of unfilled position = %v, want ErrPastHead", err)
	}
}

func TestIntegrationConcurrentAppenders(t *testing.T) {
	client, maintainers, _ := buildTCPDeployment(t, 3, 0, 10)
	const (
		goroutines = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	lidCh := make(chan uint64, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lid, err := client.Append([]byte("c"), nil)
				if err != nil {
					t.Error(err)
					return
				}
				lidCh <- lid
			}
		}()
	}
	wg.Wait()
	close(lidCh)
	seen := map[uint64]bool{}
	for lid := range lidCh {
		if seen[lid] {
			t.Fatalf("duplicate LId %d under concurrency", lid)
		}
		seen[lid] = true
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d unique LIds, want %d", len(seen), goroutines*perG)
	}
	total := 0
	for _, m := range maintainers {
		total += m.Store().Len()
	}
	if total != goroutines*perG {
		t.Errorf("stored %d records, want %d", total, goroutines*perG)
	}
}

func TestIntegrationTailFollowsLog(t *testing.T) {
	client, _, _ := buildTCPDeployment(t, 2, 0, 4)
	// Pre-existing records.
	for i := 0; i < 8; i++ {
		if _, err := client.Append([]byte(fmt.Sprintf("pre-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var mu sync.Mutex
	var got []uint64
	done := make(chan error, 1)
	go func() {
		done <- client.Tail(ctx, 1, func(rec *core.Record) bool {
			mu.Lock()
			got = append(got, rec.LId)
			n := len(got)
			mu.Unlock()
			return n < 14 // stop after 14 records
		})
	}()

	// Live appends while tailing.
	for i := 0; i < 8; i++ {
		if _, err := client.Append([]byte(fmt.Sprintf("live-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("Tail: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 14 {
		t.Fatalf("tailed %d records, want 14", len(got))
	}
	for i, lid := range got {
		if lid != uint64(i+1) {
			t.Fatalf("tail out of order at %d: %v", i, got)
		}
	}
}

func TestTailCancelled(t *testing.T) {
	client, _, _ := buildTCPDeployment(t, 1, 0, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := client.Tail(ctx, 1, func(*core.Record) bool { return true })
	if err != context.Canceled {
		t.Errorf("Tail after cancel = %v, want context.Canceled", err)
	}
}
