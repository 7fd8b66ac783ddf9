package chariots

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkPipelineRawThroughput measures the unlimited (no capacity
// model) end-to-end pipeline: how many records per second this Go
// implementation pushes from Inject to applied-in-FLStore on the host.
func BenchmarkPipelineRawThroughput(b *testing.B) {
	dc, err := New(Config{
		Self:           0,
		NumDCs:         1,
		Batchers:       1,
		Filters:        1,
		Queues:         1,
		Maintainers:    2,
		FlushThreshold: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()

	body := workload.NewBody(512, 1)
	const batch = 256
	b.ReportAllocs()
	b.SetBytes(512)
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		n := batch
		if b.N-sent < n {
			n = b.N - sent
		}
		recs := make([]*core.Record, n)
		for j := range recs {
			recs[j] = &core.Record{Host: 0, Body: body}
		}
		dc.Inject(recs)
		sent += n
	}
	// Count only fully applied records in the timing window.
	deadline := time.Now().Add(time.Minute)
	for dc.AppliedCount() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("applied %d of %d", dc.AppliedCount(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkAppendAckLatency measures one synchronous Append through the
// whole pipeline (ordering latency, not throughput).
func BenchmarkAppendAckLatency(b *testing.B) {
	dc, err := New(Config{NumDCs: 1})
	if err != nil {
		b.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	body := workload.NewBody(512, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.Append(body, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbstractReceive measures the reference implementation's
// reception path (dedup + causal ordering + apply).
func BenchmarkAbstractReceive(b *testing.B) {
	src := NewAbstractDC(1, 2)
	for i := 0; i < 1000; i++ {
		src.Append([]byte("r"), nil)
	}
	snap := src.Propagate(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewAbstractDC(0, 2)
		if err := dst.Receive(snap); err != nil {
			b.Fatal(err)
		}
		if dst.Len() != 1000 {
			b.Fatal("not all applied")
		}
	}
}

// BenchmarkFilterChampion measures the exactly-once filter per record.
func BenchmarkFilterChampion(b *testing.B) {
	routing, _ := NewFilterRouting(2, 1)
	out := make(chan []*core.Record, 1)
	f := NewFilter("Filter", nil, 0, 0, make(chan []*core.Record), routing, []chan<- []*core.Record{out}, 0)
	go func() {
		for range out {
		}
	}()
	defer close(out)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.process([]*core.Record{{Host: 1, TOId: uint64(i + 1)}})
	}
}
