package flstore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// buildDirect wires a direct (in-process) deployment for client unit
// tests: n maintainers, optional indexers, no gossip (tests drive
// Gossip/Round explicitly when heads matter).
func buildDirect(t *testing.T, n, indexers int, batch uint64) (*Client, []*Maintainer) {
	t.Helper()
	p := Placement{NumMaintainers: n, BatchSize: batch}
	var ixAPIs []IndexerAPI
	for i := 0; i < indexers; i++ {
		ixAPIs = append(ixAPIs, NewIndexer(nil))
	}
	var ms []*Maintainer
	var apis []MaintainerAPI
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Indexers: ixAPIs})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		apis = append(apis, m)
	}
	c, err := NewDirectClient(p, apis, ixAPIs)
	if err != nil {
		t.Fatal(err)
	}
	return c, ms
}

func TestDirectClientValidation(t *testing.T) {
	if _, err := NewDirectClient(Placement{}, nil, nil); err == nil {
		t.Error("invalid placement accepted")
	}
	p := Placement{NumMaintainers: 2, BatchSize: 1}
	if _, err := NewDirectClient(p, make([]MaintainerAPI, 1), nil); err == nil {
		t.Error("maintainer count mismatch accepted")
	}
}

// TestClientOptionDefaults pins the documented defaults of the read-retry
// options and that the constructors apply what they are given; a client
// always owns a session, R = 1 included.
func TestClientOptionDefaults(t *testing.T) {
	c, ms := buildDirect(t, 2, 0, 4)
	if c.readRetries != 50 || c.retryBackoff != 2*time.Millisecond {
		t.Errorf("defaults: retries=%d backoff=%v, want 50 and 2ms", c.readRetries, c.retryBackoff)
	}
	if c.Session() == nil {
		t.Fatal("unreplicated client has no session")
	}
	opt, err := NewDirectClient(c.Placement(), []MaintainerAPI{ms[0], ms[1]}, nil,
		WithReadRetries(7), WithRetryBackoff(9*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if opt.readRetries != 7 || opt.retryBackoff != 9*time.Millisecond {
		t.Errorf("options not applied: retries=%d backoff=%v", opt.readRetries, opt.retryBackoff)
	}
}

func TestClientAppendBatchPreservesOrder(t *testing.T) {
	c, _ := buildDirect(t, 2, 0, 100)
	recs := []*core.Record{
		{Body: []byte("first")}, {Body: []byte("second")}, {Body: []byte("third")},
	}
	lids, err := c.AppendBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Same maintainer, so LIds strictly ascend in batch order (§5.4's
	// same-maintainer explicit ordering).
	for i := 1; i < len(lids); i++ {
		if lids[i] <= lids[i-1] {
			t.Fatalf("batch LIds out of order: %v", lids)
		}
	}
	// The records themselves carry the assigned LIds.
	for i, r := range recs {
		if r.LId != lids[i] {
			t.Errorf("record %d LId %d != returned %d", i, r.LId, lids[i])
		}
	}
}

func TestClientAppendAfterValidation(t *testing.T) {
	c, _ := buildDirect(t, 2, 0, 10)
	if _, err := c.AppendAfter(5, 1, []*core.Record{{Body: []byte("x")}}); err == nil {
		t.Error("out-of-range maintainer accepted")
	}
	if _, err := c.AppendAfter(-1, 1, nil); err == nil {
		t.Error("negative maintainer accepted")
	}
}

func TestClientReadScanMostRecent(t *testing.T) {
	c, _ := buildDirect(t, 2, 0, 3)
	for i := 0; i < 12; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	head, _ := c.HeadExact()
	recs, err := c.Read(core.Rule{MostRecent: true, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].LId != head {
		t.Errorf("most recent LId = %d, want head %d", recs[0].LId, head)
	}
	if recs[0].LId < recs[1].LId || recs[1].LId < recs[2].LId {
		t.Error("most-recent scan not descending")
	}
}

func TestClientReadEmptyLog(t *testing.T) {
	c, _ := buildDirect(t, 2, 1, 3)
	recs, err := c.Read(core.Rule{})
	if err != nil || len(recs) != 0 {
		t.Errorf("empty scan = %v, %v", recs, err)
	}
	recs, err = c.Read(core.Rule{TagKey: "anything"})
	if err != nil || len(recs) != 0 {
		t.Errorf("empty tag read = %v, %v", recs, err)
	}
}

func TestClientReadByTagWithoutIndexersFallsBackToScan(t *testing.T) {
	c, _ := buildDirect(t, 1, 0, 100)
	c.Append([]byte("tagged"), []core.Tag{{Key: "k", Value: "v"}})
	c.Append([]byte("untagged"), nil)
	recs, err := c.Read(core.Rule{TagKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Body) != "tagged" {
		t.Errorf("scan-fallback tag read = %+v", recs)
	}
}

// TestClientReadRulesAgreeWithAndWithoutIndexers: every rule returns the
// same records whether the indexers resolve its tag or the client reads the
// log by position — and both are what the rule selects from the whole log.
// Constraints the indexer cannot check (MinLId, host, TOId) must not let it
// cut at the limit before they apply.
func TestClientReadRulesAgreeWithAndWithoutIndexers(t *testing.T) {
	var all []*core.Record
	clients := make([]*Client, 2)
	for ix := range clients {
		clients[ix], _ = buildDirect(t, 2, ix, 3)
		for i := 1; i <= 20; i++ {
			tags := []core.Tag{{Key: "k", Value: fmt.Sprint(i)}}
			if i%2 == 0 {
				tags = append(tags, core.Tag{Key: "even", Value: fmt.Sprint(i)})
			}
			rec := &core.Record{Host: core.DCID(i % 3), TOId: uint64(i), Tags: tags, Body: []byte{byte(i)}}
			if _, err := clients[ix].AppendBatch([]*core.Record{rec}); err != nil {
				t.Fatal(err)
			}
			if ix == 0 {
				all = append(all, rec)
			}
		}
	}
	for _, rule := range []core.Rule{
		{TagKey: "k", MinLId: 10, Limit: 3},
		{TagKey: "k", MinLId: 10, Limit: 3, MostRecent: true},
		{TagKey: "k", HasHost: true, Host: 1, Limit: 2},
		{TagKey: "k", MinTOId: 5, MaxTOId: 12, Limit: 3, MostRecent: true},
		{TagKey: "k", TagCmp: core.CmpGT, TagValue: "15"},
		{TagKey: "k", MaxLId: 9, Limit: 2, MostRecent: true},
		{TagKey: "even", Limit: 3},
		{TagKey: "even", Limit: 2, MostRecent: true},
		{MinLId: 5, MaxLIdExclusive: 8},
		{HasHost: true, Host: 2, Limit: 4, MostRecent: true},
	} {
		var want []uint64
		for _, r := range all {
			if rule.Match(r) {
				want = append(want, r.LId)
			}
		}
		if rule.MostRecent {
			slices.Reverse(want)
		}
		if rule.Limit > 0 && len(want) > rule.Limit {
			want = want[:rule.Limit]
		}
		for ix, c := range clients {
			recs, err := c.Read(rule)
			if err != nil {
				t.Fatalf("%d indexers, %+v: %v", ix, rule, err)
			}
			got := make([]uint64, len(recs))
			for i, r := range recs {
				got[i] = r.LId
			}
			if !slices.Equal(got, want) {
				t.Errorf("%d indexers, %+v: LIds %v, want %v", ix, rule, got, want)
			}
		}
	}
}

func TestClientReadLIdRoutesAcrossMaintainers(t *testing.T) {
	c, ms := buildDirect(t, 3, 0, 2)
	var lids []uint64
	for i := 0; i < 12; i++ {
		lid, err := c.Append([]byte(fmt.Sprintf("r%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	head, _ := c.HeadExact()
	for i, lid := range lids {
		if lid > head {
			continue
		}
		rec, err := c.ReadLId(lid)
		if err != nil {
			t.Fatalf("ReadLId(%d): %v", lid, err)
		}
		if want := fmt.Sprintf("r%d", i); string(rec.Body) != want {
			t.Errorf("body = %q, want %q", rec.Body, want)
		}
	}
	// Every maintainer served some appends (round-robin).
	for i, m := range ms {
		if m.Store().Len() == 0 {
			t.Errorf("maintainer %d got no appends", i)
		}
	}
}

func TestClientReadLIdUnknownEpoch(t *testing.T) {
	c, _ := buildDirect(t, 2, 0, 5)
	if _, err := c.ReadLId(0); err == nil {
		t.Error("ReadLId(0) accepted")
	}
	// An LId owned by a maintainer index beyond the session's set.
	c.epochs = []Epoch{{FirstLId: 1, Placement: Placement{NumMaintainers: 4, BatchSize: 5}}}
	if _, err := c.ReadLId(11); err == nil {
		t.Error("owner outside session accepted")
	}
}

func TestClientHeadVsHeadExact(t *testing.T) {
	c, ms := buildDirect(t, 2, 0, 5)
	for i := 0; i < 10; i++ {
		c.Append([]byte("x"), nil)
	}
	exact, err := c.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	if exact != 10 {
		t.Fatalf("HeadExact = %d, want 10", exact)
	}
	// Without gossip, a maintainer's own Head is a lower bound.
	h, err := c.Head()
	if err != nil {
		t.Fatal(err)
	}
	if h > exact {
		t.Errorf("gossiped head %d exceeds exact %d", h, exact)
	}
	// After a gossip exchange, both agree.
	next1, dur1, err := ms[1].GossipVecs(ms[0].NextVec(), ms[0].DurableVec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms[0].GossipVecs(next1, dur1); err != nil {
		t.Fatal(err)
	}
	h0, _ := ms[0].Head()
	h1, _ := ms[1].Head()
	if h0 != exact || h1 != exact {
		t.Errorf("post-gossip heads %d/%d, want %d", h0, h1, exact)
	}
}

func mustNext(t *testing.T, m *Maintainer) uint64 {
	t.Helper()
	n, err := m.NextUnfilled()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGossiperRoundDirect(t *testing.T) {
	_, ms := buildDirect(t, 3, 0, 4)
	for i := 0; i < 12; i++ {
		ms[i%3].Append([]*core.Record{{Body: []byte("x")}})
	}
	apis := make([]MaintainerAPI, 3)
	for i, m := range ms {
		apis[i] = m
	}
	g := NewGossiper(ms[0], apis, 0)
	g.Round() // one synchronous exchange
	h, _ := ms[0].Head()
	if h != 12 {
		t.Errorf("head after one round = %d, want 12", h)
	}
	// Start/Stop lifecycle.
	g.Start()
	g.Start() // idempotent
	g.Stop()
	g.Stop() // idempotent
	// A gossiper that was never started stops cleanly.
	g2 := NewGossiper(ms[1], apis, 0)
	g2.Stop()
}

func TestClientConcurrentTagAndScanReads(t *testing.T) {
	c, _ := buildDirect(t, 2, 2, 4)
	for i := 0; i < 40; i++ {
		c.Append([]byte(fmt.Sprintf("%d", i)), []core.Tag{{Key: "parity", Value: fmt.Sprint(i % 2)}})
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			if g%2 == 0 {
				_, err = c.Read(core.Rule{TagKey: "parity", TagCmp: core.CmpEQ, TagValue: "0", Limit: 5, MostRecent: true})
			} else {
				_, err = c.Read(core.Rule{MinLId: 1, MaxLId: 20})
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil && !errors.Is(err, core.ErrPastHead) {
			t.Error(err)
		}
	}
}
