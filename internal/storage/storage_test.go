package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// storeFactory lets every Store implementation share one conformance suite.
type storeFactory struct {
	name string
	make func(t *testing.T) Store
}

func factories() []storeFactory {
	return []storeFactory{
		{"MemStore", func(t *testing.T) Store { return NewMemStore() }},
		{"SegmentStore", func(t *testing.T) Store {
			s, err := OpenSegmentStore(t.TempDir(), SegmentStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

func rec(lid uint64) *core.Record {
	return &core.Record{LId: lid, TOId: lid, Host: 0, Body: []byte(fmt.Sprintf("body-%d", lid))}
}

func TestStoreConformance(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			t.Run("AppendGet", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				if err := s.Append(rec(5)); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get(5)
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Body) != "body-5" {
					t.Errorf("body = %q", got.Body)
				}
				if _, err := s.Get(6); !errors.Is(err, core.ErrNoSuchRecord) {
					t.Errorf("missing Get err = %v", err)
				}
			})
			t.Run("DuplicateRejected", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				if err := s.Append(rec(1)); err != nil {
					t.Fatal(err)
				}
				if err := s.Append(rec(1)); !errors.Is(err, ErrDuplicate) {
					t.Errorf("duplicate err = %v", err)
				}
			})
			t.Run("DuplicateInBatchRejected", func(t *testing.T) {
				// The duplicate check must see the batch's own members, not
				// only what is stored already, and reject before any lands.
				s := f.make(t)
				defer s.Close()
				for _, batch := range [][]*core.Record{{rec(7), rec(7)}, {rec(9), rec(8), rec(9)}} {
					if err := s.AppendBatch(batch); !errors.Is(err, ErrDuplicate) {
						t.Errorf("batch naming an LId twice: err = %v", err)
					}
				}
				n := 0
				s.Scan(0, 0, func(*core.Record) bool { n++; return true })
				if s.Len() != 0 || n != 0 {
					t.Errorf("rejected batches left Len = %d, %d scanned", s.Len(), n)
				}
			})
			t.Run("NoLIdRejected", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				if err := s.Append(&core.Record{TOId: 1}); err == nil {
					t.Error("append without LId succeeded")
				}
			})
			t.Run("ScanOrderAndBounds", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				// Out-of-order arrival (sparse LIds, like a
				// maintainer owning round-robin ranges).
				for _, lid := range []uint64{10, 2, 7, 30, 4} {
					if err := s.Append(rec(lid)); err != nil {
						t.Fatal(err)
					}
				}
				var got []uint64
				if err := s.Scan(3, 10, func(r *core.Record) bool {
					got = append(got, r.LId)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				want := []uint64{4, 7, 10}
				if len(got) != len(want) {
					t.Fatalf("Scan = %v, want %v", got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Scan = %v, want %v", got, want)
					}
				}
			})
			t.Run("ScanEarlyStop", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				for lid := uint64(1); lid <= 10; lid++ {
					if err := s.Append(rec(lid)); err != nil {
						t.Fatal(err)
					}
				}
				n := 0
				s.Scan(0, 0, func(*core.Record) bool {
					n++
					return n < 3
				})
				if n != 3 {
					t.Errorf("visited %d records, want 3", n)
				}
			})
			t.Run("MaxLIdLen", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				if s.MaxLId() != 0 || s.Len() != 0 {
					t.Error("empty store not empty")
				}
				s.AppendBatch([]*core.Record{rec(3), rec(9), rec(6)})
				if got := s.MaxLId(); got != 9 {
					t.Errorf("MaxLId = %d, want 9", got)
				}
				if got := s.Len(); got != 3 {
					t.Errorf("Len = %d, want 3", got)
				}
			})
			t.Run("CollectedBound", func(t *testing.T) {
				s := f.make(t)
				defer s.Close()
				for lid := uint64(1); lid <= 10; lid++ {
					if err := s.Append(rec(lid)); err != nil {
						t.Fatal(err)
					}
				}
				if got, cov := s.Collected(); got != 0 || cov != nil {
					t.Errorf("Collected before any GC = %d %v", got, cov)
				}
				// A GC below the bound changes neither the bound nor what it covered.
				for _, c := range []struct{ upTo, bound, toid uint64 }{{4, 4, 4}, {2, 4, 4}, {7, 7, 7}} {
					if _, err := s.GC(c.upTo, []core.Dep{{DC: 1, TOId: c.upTo}}); err != nil {
						t.Fatal(err)
					}
					if got, cov := s.Collected(); got != c.bound || len(cov) != 1 || cov[0] != (core.Dep{DC: 1, TOId: c.toid}) {
						t.Errorf("Collected after GC(%d) = %d %v, want %d [{1 %d}]", c.upTo, got, cov, c.bound, c.toid)
					}
				}
				for lid := uint64(1); lid <= 7; lid++ {
					if _, err := s.Get(lid); !errors.Is(err, core.ErrNoSuchRecord) {
						t.Errorf("Get(%d) at or below the bound = %v, want ErrNoSuchRecord", lid, err)
					}
				}
				var got []uint64
				s.Scan(0, 0, func(r *core.Record) bool { got = append(got, r.LId); return true })
				if fmt.Sprint(got) != "[8 9 10]" || s.Len() != 3 {
					t.Errorf("after GC(7): Scan = %v, Len = %d; want [8 9 10], 3", got, s.Len())
				}
				if err := s.Append(&core.Record{LId: 5, Body: []byte("again")}); err == nil {
					t.Error("append at a collected LId succeeded")
				}
			})
			t.Run("ClosedOps", func(t *testing.T) {
				s := f.make(t)
				s.Close()
				if err := s.Append(rec(1)); !errors.Is(err, ErrClosed) {
					t.Errorf("append after close: %v", err)
				}
				if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
					t.Errorf("get after close: %v", err)
				}
				if err := s.Scan(0, 0, func(*core.Record) bool { return true }); !errors.Is(err, ErrClosed) {
					t.Errorf("scan after close: %v", err)
				}
			})
		})
	}
}

func TestMemStoreGC(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for lid := uint64(1); lid <= 10; lid++ {
		s.Append(rec(lid))
	}
	n, err := s.GC(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("GC removed %d, want 4", n)
	}
	if _, err := s.Get(4); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Error("GC'd record still present")
	}
	if _, err := s.Get(5); err != nil {
		t.Errorf("surviving record lost: %v", err)
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
}

func TestMemStoreEquivalentToModelProperty(t *testing.T) {
	// Property: after any sequence of appends with distinct LIds, Scan
	// returns exactly the appended records in ascending LId order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore()
		defer s.Close()
		model := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			lid := uint64(1 + rng.Intn(500))
			err := s.Append(rec(lid))
			if model[lid] {
				if !errors.Is(err, ErrDuplicate) {
					return false
				}
				continue
			}
			if err != nil {
				return false
			}
			model[lid] = true
		}
		var prev uint64
		count := 0
		s.Scan(0, 0, func(r *core.Record) bool {
			if r.LId <= prev || !model[r.LId] {
				count = -1 << 30
				return false
			}
			prev = r.LId
			count++
			return true
		})
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
