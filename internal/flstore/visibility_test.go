package flstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// gate holds or fails the next call that reaches it: arm() makes the next
// pass() park (announcing itself on entered) until the returned channel is
// closed; each error queued on fail makes one pass() return it instead of
// reaching the wrapped call. Calls that find neither pass straight through.
type gate struct {
	armed   chan chan struct{}
	entered chan struct{}
	fail    chan error
}

func newGate() *gate {
	return &gate{armed: make(chan chan struct{}, 1), entered: make(chan struct{}, 1), fail: make(chan error, 4)}
}

func (g *gate) arm() chan struct{} {
	release := make(chan struct{})
	g.armed <- release
	return release
}

func (g *gate) pass() error {
	select {
	case err := <-g.fail:
		return err
	case release := <-g.armed:
		g.entered <- struct{}{}
		<-release
	default:
	}
	return nil
}

type gatedStore struct {
	storage.Store
	g *gate
}

func (s gatedStore) AppendBatch(rs []*core.Record) error {
	if err := s.g.pass(); err != nil {
		return err
	}
	return s.Store.AppendBatch(rs)
}

type gatedIndexer struct {
	IndexerAPI
	g *gate
}

func (ix gatedIndexer) Post(entries []Posting) error {
	if err := ix.g.pass(); err != nil {
		return err
	}
	return ix.IndexerAPI.Post(entries)
}

const visN = 4 // records per batch: A takes LIds 1..4, B takes 5..8

// ingestEntry is one ingestion entry point under test: a and b build its
// first and second batch.
type ingestEntry struct {
	name   string
	a, b   func() []*core.Record
	ingest func(m *Maintainer, recs []*core.Record) error
	posts  bool // the entry point streams tag postings
}

func ingestEntries() []ingestEntry {
	const n = visN
	fresh := func() []*core.Record {
		recs := make([]*core.Record, n)
		for i := range recs {
			recs[i] = &core.Record{Body: []byte("x"), Tags: []core.Tag{{Key: "k", Value: "v"}}}
		}
		return recs
	}
	placed := func(first uint64) func() []*core.Record {
		return func() []*core.Record {
			recs := fresh()
			for i, r := range recs {
				r.LId, r.TOId = first+uint64(i), first+uint64(i)
			}
			return recs
		}
	}
	return []ingestEntry{
		{"Append", fresh, fresh, func(m *Maintainer, recs []*core.Record) error {
			_, err := m.Append(recs)
			return err
		}, true},
		{"AppendFor", fresh, fresh, func(m *Maintainer, recs []*core.Record) error {
			_, err := m.AppendFor(0, recs)
			return err
		}, true},
		{"AppendAssigned", placed(1), placed(n + 1), (*Maintainer).AppendAssigned, true},
		{"ReplicaAppend", placed(1), placed(n + 1), (*Maintainer).ReplicaAppend, false},
	}
}

// visRig is one single-range maintainer behind a gated store and a gated
// indexer, with a direct client for the head and tag reads.
type visRig struct {
	t                   *testing.T
	m                   *Maintainer
	client              *Client
	storeGate, postGate *gate
}

func newVisRig(t *testing.T) *visRig {
	t.Helper()
	v := &visRig{t: t, storeGate: newGate(), postGate: newGate()}
	p := Placement{NumMaintainers: 1, BatchSize: 100}
	ix := gatedIndexer{NewIndexer(nil), v.postGate}
	var err error
	v.m, err = NewMaintainer(MaintainerConfig{
		Placement:     p,
		Store:         gatedStore{storage.NewMemStore(), v.storeGate},
		Indexers:      []IndexerAPI{ix},
		readBlockWait: -1, // a blocked read reports so at once
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.client, err = NewDirectClient(p, []MaintainerAPI{v.m}, []IndexerAPI{ix}); err != nil {
		t.Fatal(err)
	}
	return v
}

// gate returns the gate in front of the named stage.
func (v *visRig) gate(stage string) *gate {
	if stage == "indexer" {
		return v.postGate
	}
	return v.storeGate
}

// expect checks that every reader-facing signal covers exactly the LIds
// through want.
func (v *visRig) expect(when string, want uint64) {
	t, m := v.t, v.m
	t.Helper()
	next, err := m.NextUnfilled()
	if err != nil {
		t.Fatal(err)
	}
	front, err := m.RangeFrontier(0)
	if err != nil {
		t.Fatal(err)
	}
	wm, _, err := m.ValidityWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	head, err := v.client.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ReadRange(RangeQuery{Lo: 1, Hi: 2 * visN, Range: 0})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.Records)) != res.CoveredHi {
		t.Errorf("ReadRange covers through %d but returned %d records", res.CoveredHi, len(res.Records))
	}
	for signal, got := range map[string]uint64{
		"NextUnfilled": next - 1, "RangeFrontier": front - 1, "ValidityWatermark": wm - 1,
		"HeadExact": head, "ReadRange.CoveredHi": res.CoveredHi,
	} {
		if got != want {
			t.Errorf("%s: %s covers through LId %d, want %d", when, signal, got, want)
		}
	}
}

// expectTagged checks that a tag read finds the first want records.
func (v *visRig) expectTagged(want int) {
	v.t.Helper()
	recs, err := v.client.Read(core.Rule{TagKey: "k"})
	if err != nil {
		v.t.Fatal(err)
	}
	if len(recs) != want {
		v.t.Errorf("tag read found %d records, want %d", len(recs), want)
	}
}

// TestFrontierPublishedAfterStoreAndPostings pins the visibility contract
// (DESIGN.md §7) at every ingestion entry point, once per stage of the
// commit tail (store write, tag posting) and per fault:
//
// held: while a batch's stage is still in flight, no reader-facing signal
// may cover it — and a later batch of the same range that finishes first
// must not publish past it. Once released, every signal covers both batches
// and a tag read finds the records.
//
// fails: a batch whose stage errors is covered by no signal, and neither is
// anything after it — the next batch is refused, not acked over a frontier
// that cannot move, while the fault lasts. Once the stage works again the
// next batch re-runs the failed tail first, and every signal covers both.
func TestFrontierPublishedAfterStoreAndPostings(t *testing.T) {
	const n = visN
	for _, e := range ingestEntries() {
		for _, stage := range []string{"store", "indexer"} {
			if stage == "indexer" && !e.posts {
				continue // copies don't post: the acting primary already did
			}
			t.Run(e.name+"/"+stage+"-held", func(t *testing.T) {
				v := newVisRig(t)
				m := v.m
				tailed := make(chan uint64, 1)
				go func() {
					f, _ := m.TailWait(0, 1, time.Minute)
					tailed <- f
				}()
				g := v.gate(stage)
				release := g.arm()
				aDone := make(chan error, 1)
				go func() { aDone <- e.ingest(m, e.a()) }()
				<-g.entered
				v.expect("batch A in flight", 0)
				// Uncounted is not absent: a position assigned here whose
				// record has not reached the store yet blocks the reader.
				if _, err := m.Read(1); stage == "store" && !errors.Is(err, ErrReadBlocked) {
					t.Errorf("Read of an assigned position in flight = %v, want ErrReadBlocked", err)
				}
				if _, err := m.Read(2*n + 1); !errors.Is(err, core.ErrNoSuchRecord) {
					t.Errorf("Read of an unassigned position = %v, want ErrNoSuchRecord", err)
				}

				if err := e.ingest(m, e.b()); err != nil {
					t.Fatal(err)
				}
				v.expect("batch B finished ahead of A", 0)
				select {
				case f := <-tailed:
					t.Errorf("TailWait woke with frontier %d while batch A was in flight", f)
					tailed <- f // for the final receive
				default:
				}

				close(release)
				if err := <-aDone; err != nil {
					t.Fatal(err)
				}
				v.expect("both batches finished", 2*n)
				if f := <-tailed; f != 2*n+1 {
					t.Errorf("TailWait returned frontier %d, want %d", f, 2*n+1)
				}
				if e.posts {
					v.expectTagged(2 * n)
				}
			})
			t.Run(e.name+"/"+stage+"-fails", func(t *testing.T) {
				v := newVisRig(t)
				m := v.m
				fault := errors.New("injected " + stage + " fault")
				g := v.gate(stage)
				g.fail <- fault // fails batch A's tail
				g.fail <- fault // and its re-run ahead of batch B
				if err := e.ingest(m, e.a()); !errors.Is(err, fault) {
					t.Fatalf("batch A = %v, want the injected fault", err)
				}
				v.expect("batch A failed", 0)
				if _, err := m.Read(1); stage == "store" && !errors.Is(err, ErrReadBlocked) {
					t.Errorf("Read of an assigned position whose tail failed = %v, want ErrReadBlocked", err)
				}
				b := e.b()
				if err := e.ingest(m, b); !errors.Is(err, fault) {
					t.Fatalf("batch B behind the failed tail = %v, want it refused with the fault", err)
				}
				v.expect("batch B refused", 0)
				// Never claimed, so absent — except that a copy announces its
				// positions on arrival, before anything may refuse it.
				if _, err := m.Read(n + 1); e.name == "ReplicaAppend" && !errors.Is(err, ErrReadBlocked) {
					t.Errorf("Read of refused copy B's announced position = %v, want ErrReadBlocked", err)
				} else if e.name != "ReplicaAppend" && !errors.Is(err, core.ErrNoSuchRecord) {
					t.Errorf("Read of refused batch B's position = %v, want ErrNoSuchRecord (never claimed)", err)
				}

				if err := e.ingest(m, e.b()); err != nil {
					t.Fatalf("batch B after the fault cleared: %v", err)
				}
				v.expect("failed tail re-run, batch B stored", 2*n)
				if e.posts {
					v.expectTagged(2 * n)
				}
				m.mu.Lock()
				parked, failed := len(m.hosted[0].done), len(m.failed)
				m.mu.Unlock()
				if parked != 0 || failed != 0 {
					t.Errorf("%d spans still parked and %d tails still failed after recovery", parked, failed)
				}
			})
		}
	}
}
