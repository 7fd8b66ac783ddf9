package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func benchRecords(n, size int) []*core.Record {
	body := workload.NewBody(size, 1)
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{LId: uint64(i + 1), TOId: uint64(i + 1), Body: body}
	}
	return recs
}

func BenchmarkMemStoreAppend(b *testing.B) {
	body := workload.NewBody(512, 1)
	s := NewMemStore()
	defer s.Close()
	b.ReportAllocs()
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		if err := s.Append(&core.Record{LId: uint64(i + 1), TOId: uint64(i + 1), Body: body}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemStoreGet(b *testing.B) {
	s := NewMemStore()
	defer s.Close()
	s.AppendBatch(benchRecords(10000, 512))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(uint64(i%10000 + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentStoreAppend is the storage layer benchmark: one 512 B
// record per AppendBatch under each sync policy, from 1, 8 and 64 parallel
// appenders. ns/op is the time per append at that concurrency and fsyncs/op
// the physical fsyncs each one cost: a lone group-commit caller pays what
// per-batch fsync pays (1 fsync, no added wait), and under concurrency
// group commit's fsyncs/op falls towards 1/appenders while each stays at 1.
func BenchmarkSegmentStoreAppend(b *testing.B) {
	body := workload.NewBody(512, 1)
	for _, pol := range []struct {
		name string
		sync SyncPolicy
	}{{"never", SyncNever}, {"each", SyncEachBatch}, {"group", SyncGroupCommit}} {
		for _, appenders := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/appenders=%d", pol.name, appenders), func(b *testing.B) {
				s, err := OpenSegmentStore(b.TempDir(), SegmentStoreOptions{Sync: pol.sync})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				var next atomic.Uint64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.SetBytes(512)
				b.ResetTimer()
				for a := 0; a < appenders; a++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for lid := next.Add(1); lid <= uint64(b.N); lid = next.Add(1) {
							if err := s.Append(&core.Record{LId: lid, TOId: lid, Body: body}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(s.FsyncCount())/float64(b.N), "fsyncs/op")
			})
		}
	}
}

func BenchmarkSegmentStoreAppendBatch(b *testing.B) {
	for _, batch := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s, err := OpenSegmentStore(b.TempDir(), SegmentStoreOptions{Sync: SyncEachBatch})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			body := workload.NewBody(512, 1)
			b.ReportAllocs()
			b.SetBytes(int64(512 * batch))
			lid := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs := make([]*core.Record, batch)
				for j := range recs {
					recs[j] = &core.Record{LId: lid, TOId: lid, Body: body}
					lid++
				}
				if err := s.AppendBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStore fills a store in dir with n 512 B records in batches of 256
// (13 segments for 200 000) and closes it, returning the segment bytes.
func benchStore(b *testing.B, dir string, n int) int64 {
	s, err := OpenSegmentStore(dir, SegmentStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	recs := benchRecords(n, 512)
	for i := 0; i < n; i += 256 {
		if err := s.AppendBatch(recs[i:min(i+256, n)]); err != nil {
			b.Fatal(err)
		}
	}
	segments, bytes := s.DiskStats()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if segments < 12 && n >= 200_000 {
		b.Fatalf("only %d segments", segments)
	}
	return bytes
}

// BenchmarkSegmentStoreRecovery reopens a 13-segment store: ms/GB is the
// recovery ledger line (ROADMAP item 2), one segment scan plus a table per
// sealed segment.
func BenchmarkSegmentStoreRecovery(b *testing.B) {
	dir := b.TempDir()
	const n = 200_000
	bytes := benchStore(b, dir, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := OpenSegmentStore(dir, SegmentStoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if s2.Len() != n {
			b.Fatalf("recovered %d records", s2.Len())
		}
		s2.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)/(float64(bytes)/(1<<30)), "ms/GB")
}

// BenchmarkSegmentStoreScanCold is read_mixed's scan at the storage layer:
// windows of 256 consecutive LIds at seeded offsets of a 120 000-record
// store, nothing cached above the file system. us/record is the cold-read
// ledger line.
func BenchmarkSegmentStoreScanCold(b *testing.B) {
	dir := b.TempDir()
	const n, window = 120_000, 256
	benchStore(b, dir, n)
	s, err := OpenSegmentStore(dir, SegmentStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.SetBytes(window * 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := 1 + uint64(rng.Intn(n-window))
		got := 0
		if err := s.Scan(from, from+window-1, func(*core.Record) bool { got++; return true }); err != nil || got != window {
			b.Fatalf("Scan(%d) = %d records, %v", from, got, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/window, "us/record")
}
