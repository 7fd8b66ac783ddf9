package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// lidGen draws LIds the way the stores meet them: a dense run, rounds of
// eight interleaved over three ranges (a maintainer's hosted share), sparse
// positions across the whole uint64 space, and a small pool that repeats.
func lidGen(rng *rand.Rand) func() uint64 {
	dense, round := uint64(1), uint64(0)
	return func() uint64 {
		switch rng.Intn(4) {
		case 0:
			dense++
			return dense
		case 1:
			round++
			return 1<<20 + (round/8)*24 + round%8
		case 2:
			return rng.Uint64()>>uint(rng.Intn(60)) | 1
		default:
			return uint64(1 + rng.Intn(3000))
		}
	}
}

func sortedKeys[V any](m map[uint64]V, from, to uint64) []uint64 {
	var ks []uint64
	for k := range m {
		if k >= from && (to == 0 || k <= to) {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// TestTableMatchesMap drives the table and a plain map with the same seeded
// operations and compares every answer.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		next := lidGen(rng)
		var tb table[uint64]
		model := map[uint64]uint64{}
		var max uint64
		for op := 0; op < 3000; op++ {
			lid := next()
			switch rng.Intn(10) {
			default: // set; the slot value is the LId, so windows identify themselves
				tb.set(lid, lid)
				model[lid] = lid
				if lid > max {
					max = lid
				}
			case 0: // prune a prefix; the bound only rises
				want := 0
				for k := range model {
					if b, _ := tb.bound(); k <= lid && lid > b {
						delete(model, k)
						want++
					}
				}
				bound, _ := tb.bound()
				if lid > bound {
					bound = lid
				}
				if got := tb.prune(lid, nil); got != want || tb.collected.Load().bound != bound {
					t.Fatalf("seed %d: prune(%d) = %d with bound %d, want %d with bound %d", seed, lid, got, tb.collected.Load().bound, want, bound)
				}
			case 1: // a window with a small capacity, resumed until exhausted
				to := uint64(0)
				if rng.Intn(2) == 0 {
					to = lid + uint64(rng.Intn(5000))
				}
				var got []uint64
				buf := make([]uint64, 0, 1+rng.Intn(40))
				for from := lid; from != 0; {
					buf, from = tb.window(buf[:0], from, to)
					got = append(got, buf...)
				}
				if want := sortedKeys(model, lid, to); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d: window(%d, %d) = %v, want %v", seed, lid, to, got, want)
				}
			}
			if got := tb.get(lid); got != model[lid] {
				t.Fatalf("seed %d: get(%d) = %d, want %d", seed, lid, got, model[lid])
			}
			if tb.n != len(model) || tb.max != max {
				t.Fatalf("seed %d: n=%d max=%d, want %d %d", seed, tb.n, tb.max, len(model), max)
			}
		}
		for i, p := range tb.pages {
			if p.n == 0 || (i > 0 && p.no <= tb.pages[i-1].no) {
				t.Fatalf("seed %d: directory entry %d (page %d, %d slots) empty or out of order", seed, i, p.no, p.n)
			}
		}
	}
}

// TestStoresMatchModel drives MemStore and a rotating SegmentStore with the
// same seeded operations as a plain map: batches of dense, interleaved,
// sparse and repeated LIds (duplicates across and inside batches, and LIds
// at or below the collected bound), GC at bounds inside the stored LIds,
// Scan windows that stop early, and reopens of the SegmentStore.
func TestStoresMatchModel(t *testing.T) {
	for _, name := range []string{"MemStore", "SegmentStore"} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				next := lidGen(rng)
				dir := t.TempDir()
				open := func() Store {
					if name == "MemStore" {
						return NewMemStore()
					}
					return openSeg(t, dir, SegmentStoreOptions{MaxSegmentBytes: 2048})
				}
				s := open()
				model := map[uint64]bool{}
				var bound uint64
				var covered []core.Dep // what the GC that set bound was told
				checkCollected := func(when string) {
					if got, cov := s.Collected(); got != bound || fmt.Sprint(cov) != fmt.Sprint(covered) {
						t.Fatalf("seed %d: Collected %s = %d %v, want %d %v", seed, when, got, cov, bound, covered)
					}
				}
				for op := 0; op < 400; op++ {
					switch rng.Intn(8) {
					default:
						batch := make([]*core.Record, 1+rng.Intn(12))
						fresh, collected := true, false
						inBatch := map[uint64]bool{}
						for i := range batch {
							lid := next()
							batch[i] = rec(lid)
							fresh = fresh && !model[lid] && !inBatch[lid]
							collected = collected || lid <= bound
							inBatch[lid] = true
						}
						err := s.AppendBatch(batch)
						if !fresh || collected {
							if err == nil || (!collected && !errors.Is(err, ErrDuplicate)) {
								t.Fatalf("seed %d: batch with a duplicate or collected LId: %v", seed, err)
							}
							continue // and nothing of it may have been stored: checked by the scans below
						}
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						for lid := range inBatch {
							model[lid] = true
						}
					case 0:
						keys := sortedKeys(model, 0, 0)
						if len(keys) == 0 {
							continue
						}
						upTo := keys[rng.Intn(len(keys)/2+1)]
						cov := []core.Dep{{DC: 0, TOId: upTo}, {DC: 3, TOId: uint64(op)}}
						before := s.Len()
						removed, err := s.GC(upTo, cov)
						if err != nil || removed != before-s.Len() {
							t.Fatalf("seed %d: GC(%d) = %d, %v; Len %d -> %d", seed, upTo, removed, err, before, s.Len())
						}
						if upTo > bound { // a lower GC changes neither
							bound, covered = upTo, cov
						}
						checkCollected(fmt.Sprintf("after GC(%d)", upTo))
						// Everything at or below the bound is gone, and
						// nothing above it.
						for lid := range model {
							_, err := s.Get(lid)
							if lid <= bound {
								if !errors.Is(err, core.ErrNoSuchRecord) {
									t.Fatalf("seed %d: after GC(%d) Get(%d): %v", seed, upTo, lid, err)
								}
								delete(model, lid)
							} else if err != nil {
								t.Fatalf("seed %d: after GC(%d) Get(%d): %v", seed, upTo, lid, err)
							}
						}
					case 1:
						from, to := next(), uint64(0)
						if rng.Intn(2) == 0 {
							to = from + uint64(rng.Intn(4000))
						}
						want := sortedKeys(model, from, to)
						if stop := rng.Intn(300); stop < len(want) {
							want = want[:stop+1]
						}
						var got []uint64
						if err := s.Scan(from, to, func(r *core.Record) bool {
							if string(r.Body) != fmt.Sprintf("body-%d", r.LId) {
								t.Fatalf("seed %d: record %d carries %q", seed, r.LId, r.Body)
							}
							got = append(got, r.LId)
							return len(got) < len(want)
						}); err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("seed %d: Scan(%d, %d) = %v, want %v", seed, from, to, got, want)
						}
					case 2:
						if name != "SegmentStore" {
							continue
						}
						if err := s.Close(); err != nil {
							t.Fatal(err)
						}
						s = open()
						checkCollected("after reopen")
					}
					if s.Len() != len(model) {
						t.Fatalf("seed %d: Len = %d, model has %d", seed, s.Len(), len(model))
					}
				}
				s.Close()
			}
		})
	}
}

// hostedLIds lists the first n positions maintainer 0 stores under
// round-robin placement: rounds of b positions over nm ranges, each range
// on r consecutive maintainers.
func hostedLIds(nm, r, b, n int) []uint64 {
	var lids []uint64
	for lid := uint64(1); len(lids) < n; lid++ {
		if owner := int((lid-1)/uint64(b)) % nm; (nm-owner)%nm < r {
			lids = append(lids, lid)
		}
	}
	return lids
}

// TestIndexBytesPerRecord is the index's memory ledger. Where every range
// is on every maintainer (R = N: the benchmark, the durability rig) the
// store holds every position and its pages are full. cmd/flstore's default
// (N=3, R=1, rounds of 1000) leaves the two pages at each round's edges part
// empty, and short rounds at R < N — a corner nothing runs, and the index is
// not built for — leave every page a tenth full: both are printed so they
// are on record.
func TestIndexBytesPerRecord(t *testing.T) {
	perRecord := func(nm, r, b int) float64 {
		var tb table[slot]
		for _, lid := range hostedLIds(nm, r, b, 200_000) {
			tb.set(lid, slot{length: 1})
		}
		page := unsafe.Sizeof(tablePage[slot]{}) + unsafe.Sizeof([pageSize]slot{})
		return float64(len(tb.pages)) * float64(page) / float64(tb.n)
	}
	for _, g := range []struct {
		nm, r, b int
		bound    float64
	}{{3, 3, 8, 16}, {3, 3, 1000, 16}, {3, 1, 1000, 0}, {10, 1, 8, 0}} {
		got := perRecord(g.nm, g.r, g.b)
		t.Logf("index: %.2f B/record at N=%d R=%d B=%d", got, g.nm, g.r, g.b)
		if g.bound != 0 && got > g.bound {
			t.Errorf("index costs %.2f B/record at N=%d R=%d B=%d, want <= %.0f", got, g.nm, g.r, g.b, g.bound)
		}
	}
}

// TestSegmentStoreConcurrentReads runs readers over the handle cache while
// an appender rotates segments and collects behind itself: every record a
// reader is handed is intact, and one above the collected bound is never
// missing. It is a -race test first.
func TestSegmentStoreConcurrentReads(t *testing.T) {
	s := openSeg(t, t.TempDir(), SegmentStoreOptions{MaxSegmentBytes: 1024})
	defer s.Close()
	const total, keep = 3000, 500
	var collected atomic.Uint64 // the highest bound handed to GC
	var wg sync.WaitGroup
	done := make(chan struct{})
	check := func(r *core.Record) {
		if string(r.Body) != fmt.Sprintf("body-%d", r.LId) {
			t.Errorf("record %d carries %q", r.LId, r.Body)
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				hi := s.MaxLId()
				if hi == 0 {
					continue
				}
				lid := 1 + uint64(rng.Int63n(int64(hi)))
				if r, err := s.Get(lid); err == nil {
					check(r)
				} else if !errors.Is(err, core.ErrNoSuchRecord) || lid > collected.Load() {
					t.Errorf("Get(%d) with head %d, collected to %d: %v", lid, hi, collected.Load(), err)
				}
				if err := s.Scan(lid, lid+300, func(r *core.Record) bool { check(r); return true }); err != nil {
					t.Errorf("Scan(%d): %v", lid, err)
				}
			}
		}(g)
	}
	for lid := uint64(1); lid <= total; lid += 4 {
		if err := s.AppendBatch([]*core.Record{rec(lid), rec(lid + 1), rec(lid + 2), rec(lid + 3)}); err != nil {
			t.Fatal(err)
		}
		if lid%200 == 1 && lid > keep {
			collected.Store(lid - keep)
			if _, err := s.GC(lid-keep, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}
