package chariots

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// fastCfg returns a small, unlimited-rate datacenter config tuned for
// tests (tight flush intervals so latency is milliseconds).
func fastCfg(self core.DCID, numDCs int) Config {
	return Config{
		Self:           self,
		NumDCs:         numDCs,
		Batchers:       2,
		Filters:        2,
		Queues:         2,
		Maintainers:    3,
		Senders:        2,
		Receivers:      2,
		PlacementBatch: 8,
		FlushThreshold: 16,
		SendThreshold:  16,
	}
}

func startDC(t *testing.T, cfg Config) *Datacenter {
	t.Helper()
	dc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	t.Cleanup(dc.Stop)
	return dc
}

func TestPipelineSingleDCAppendAck(t *testing.T) {
	dc := startDC(t, fastCfg(0, 1))
	ack, err := dc.Append([]byte("hello"), []core.Tag{{Key: "k", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.TOId != 1 || ack.LId != 1 {
		t.Errorf("ack = %+v, want TOId 1 LId 1", ack)
	}
	ack2, _ := dc.Append([]byte("again"), nil)
	if ack2.TOId != 2 || ack2.LId != 2 {
		t.Errorf("ack2 = %+v", ack2)
	}
}

func TestPipelineSingleDCManyRecordsDenseLIds(t *testing.T) {
	dc := startDC(t, fastCfg(0, 1))
	const n = 2000
	for i := 0; i < n; i++ {
		dc.AppendAsync([]byte(fmt.Sprintf("r%d", i)), nil)
	}
	applied := dc.Quiesce(50*time.Millisecond, 10*time.Second)
	if applied != n {
		t.Fatalf("applied %d records, want %d", applied, n)
	}
	recs, err := dc.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("log has %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LId != uint64(i+1) {
			t.Fatalf("LIds not dense at %d: %d", i, r.LId)
		}
		if r.TOId != uint64(i+1) {
			t.Fatalf("TOIds not dense at %d: %d", i, r.TOId)
		}
	}
	if err := CheckCausalInvariant(recs); err != nil {
		t.Error(err)
	}
}

func TestPipelineTwoDCsReplicate(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	const n = 300
	for i := 0; i < n; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
		b.AppendAsync([]byte(fmt.Sprintf("b%d", i)), nil)
	}
	// Every DC must converge to 2n applied records.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if a.AppliedCount() >= 2*n && b.AppliedCount() >= 2*n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("convergence timeout: a=%d b=%d", a.AppliedCount(), b.AppliedCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Quiesce(50*time.Millisecond, 5*time.Second)
	b.Quiesce(50*time.Millisecond, 5*time.Second)

	for name, dc := range map[string]*Datacenter{"A": a, "B": b} {
		recs, err := dc.LogRecords()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2*n {
			t.Fatalf("%s has %d records, want %d", name, len(recs), 2*n)
		}
		if err := CheckCausalInvariant(recs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Exactly-once: no duplicate (host, TOId).
		seen := map[core.GlobalID]bool{}
		for _, r := range recs {
			if seen[r.ID()] {
				t.Fatalf("%s: duplicate %v", name, r.ID())
			}
			seen[r.ID()] = true
		}
	}
}

func TestPipelineCausalOrderAcrossDCs(t *testing.T) {
	// A chain: A writes a1; B reads it and writes b1 (dep on a1);
	// C must apply a1 before b1 even though B's shipment may win the race.
	a := startDC(t, fastCfg(0, 3))
	b := startDC(t, fastCfg(1, 3))
	c := startDC(t, fastCfg(2, 3))
	for _, pair := range []struct {
		from *Datacenter
		to   *Datacenter
	}{{a, b}, {a, c}, {b, a}, {b, c}, {c, a}, {c, b}} {
		pair.from.ConnectTo(pair.to.Self(), pair.to.Receivers())
	}

	ackA, err := a.Append([]byte("a1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until B has applied a1, then write b1 at B with that dep.
	if !b.WaitForTOId(0, ackA.TOId, 5*time.Second) {
		t.Fatal("B never applied a1")
	}
	if _, err := b.AppendDeps([]byte("b1"), nil, []core.Dep{{DC: 0, TOId: ackA.TOId}}); err != nil {
		t.Fatal(err)
	}
	// C converges to both records.
	if !c.WaitForTOId(1, 1, 5*time.Second) || !c.WaitForTOId(0, 1, 5*time.Second) {
		t.Fatal("C never converged")
	}
	c.Quiesce(30*time.Millisecond, 5*time.Second)
	recs, err := c.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCausalInvariant(recs); err != nil {
		t.Fatal(err)
	}
	// a1 must precede b1 in C's log.
	var posA, posB int
	for i, r := range recs {
		if r.Host == 0 && r.TOId == ackA.TOId {
			posA = i
		}
		if r.Host == 1 && r.TOId == 1 {
			posB = i
		}
	}
	if posA >= posB {
		t.Errorf("a1 at %d not before b1 at %d in C's log", posA, posB)
	}
}

func TestPipelineExactlyOnceUnderDuplicateDelivery(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	ack, err := a.Append([]byte("once"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.WaitForTOId(0, ack.TOId, 5*time.Second) {
		t.Fatal("B never applied the record")
	}
	// Maliciously redeliver the same record several times straight into
	// B's receivers.
	rec := &core.Record{Host: 0, TOId: ack.TOId, Body: []byte("once")}
	for i := 0; i < 5; i++ {
		b.Receivers()[0].Deliver(Snapshot{From: 0, Records: []*core.Record{rec}})
	}
	time.Sleep(50 * time.Millisecond)
	b.Quiesce(30*time.Millisecond, 5*time.Second)
	recs, _ := b.LogRecords()
	count := 0
	for _, r := range recs {
		if r.Host == 0 && r.TOId == ack.TOId {
			count++
		}
	}
	if count != 1 {
		t.Errorf("record applied %d times, want exactly once", count)
	}
}

func TestPipelineWithLatencyLinks(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	wrap := func(rxs []ReceiverAPI, d time.Duration) []ReceiverAPI {
		out := make([]ReceiverAPI, len(rxs))
		for i, rx := range rxs {
			l := NewLatencyLink(rx, d)
			t.Cleanup(l.Close)
			out[i] = l
		}
		return out
	}
	const wan = 30 * time.Millisecond
	a.ConnectTo(1, wrap(b.Receivers(), wan))
	b.ConnectTo(0, wrap(a.Receivers(), wan))

	start := time.Now()
	ack, err := a.Append([]byte("transatlantic"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.WaitForTOId(0, ack.TOId, 5*time.Second) {
		t.Fatal("replication never arrived")
	}
	elapsed := time.Since(start)
	if elapsed < wan {
		t.Errorf("replicated in %v, faster than the %v one-way latency", elapsed, wan)
	}
}

func TestPipelineGarbageCollection(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	const n = 100
	for i := 0; i < n; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
	}
	if !b.WaitForTOId(0, n, 10*time.Second) {
		t.Fatal("B never converged")
	}
	// Wait for the awareness to round-trip: A must learn that B knows
	// A's records (heartbeats carry the table).
	deadline := time.Now().Add(5 * time.Second)
	for a.ATable().Get(1, 0) < n {
		if time.Now().After(deadline) {
			t.Fatalf("A's T[B][A] stuck at %d", a.ATable().Get(1, 0))
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.Quiesce(30*time.Millisecond, 5*time.Second)

	head, _ := a.Head()
	removed, frontier, err := a.CollectGarbage(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("GC removed nothing despite full awareness")
	}
	if frontier == 0 || frontier > head {
		t.Errorf("frontier = %d, head = %d", frontier, head)
	}
	// keepAfter must stop collection.
	_, frontier2, _ := b.CollectGarbage(10)
	if frontier2 >= 10 {
		t.Errorf("keepAfter ignored: frontier %d", frontier2)
	}
}

func TestPipelineTable1Properties(t *testing.T) {
	// Table 1 positions Chariots as the only causal + partitioned +
	// replicated shared log. These are the three properties as tests:
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())
	const n = 90
	for i := 0; i < n; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
		b.AppendAsync([]byte(fmt.Sprintf("b%d", i)), nil)
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.AppliedCount() < 2*n || b.AppliedCount() < 2*n {
		if time.Now().After(deadline) {
			t.Fatal("no convergence")
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.Quiesce(30*time.Millisecond, 5*time.Second)
	b.Quiesce(30*time.Millisecond, 5*time.Second)

	// (1) Replicated: both datacenters hold every record.
	ra, _ := a.LogRecords()
	rb, _ := b.LogRecords()
	if len(ra) != 2*n || len(rb) != 2*n {
		t.Fatalf("replication incomplete: %d/%d", len(ra), len(rb))
	}
	// (2) Partitioned: each replica's log spans multiple maintainers,
	// all of which hold records.
	for _, dc := range []*Datacenter{a, b} {
		for i, m := range dc.Maintainers() {
			if m.Store().Len() == 0 {
				t.Errorf("%s maintainer %d empty: not partitioned", dc.Self(), i)
			}
		}
	}
	// (3) Causal: both logs satisfy the causal-order invariant.
	if err := CheckCausalInvariant(ra); err != nil {
		t.Error(err)
	}
	if err := CheckCausalInvariant(rb); err != nil {
		t.Error(err)
	}
}

// TestCollectGarbageProgression: repeated collections with appends in
// flight between them move the datacenter's collected bound forward
// monotonically, never over a record the awareness table calls unsafe, and
// once both datacenters know the whole log, up to its head. A collected
// position then reads as absent at once, and LogRecords starts above it.
func TestCollectGarbageProgression(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	var bound uint64
	collect := func() {
		t.Helper()
		window, err := a.LogRecords()
		if err != nil {
			t.Fatal(err)
		}
		_, next, err := a.CollectGarbage(0)
		if err != nil {
			t.Fatal(err)
		}
		if next < bound {
			t.Fatalf("collected bound went back from %d to %d", bound, next)
		}
		// The awareness table only grows, so a record unsafe now was
		// unsafe when it was collected.
		for _, r := range window {
			if r.LId <= next && !a.ATable().GCSafe(r.Host, r.TOId) {
				t.Fatalf("bound %d passed LId %d (host %d, TOId %d), which is not GC-safe", next, r.LId, r.Host, r.TOId)
			}
		}
		bound = next
	}
	const rounds, perRound = 6, 25
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			a.AppendAsync([]byte(fmt.Sprintf("a%d-%d", round, i)), nil)
			if i%5 == 0 {
				b.AppendAsync([]byte(fmt.Sprintf("b%d-%d", round, i)), nil)
			}
		}
		collect()
	}
	const fromA, fromB = rounds * perRound, rounds * perRound / 5
	if !b.WaitForTOId(0, fromA, 10*time.Second) || !a.WaitForTOId(1, fromB, 10*time.Second) {
		t.Fatal("no convergence")
	}
	const head = fromA + fromB
	if h, err := a.Reader().WaitHead(head, 5*time.Second); err != nil || h != head {
		t.Fatalf("head %d, %v; want %d", h, err, head)
	}
	deadline := time.Now().Add(10 * time.Second)
	for collect(); bound < head; collect() {
		if time.Now().After(deadline) {
			t.Fatalf("bound stuck at %d below head %d", bound, head)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if bound != head {
		t.Fatalf("bound %d past head %d", bound, head)
	}

	start := time.Now()
	if _, err := a.Reader().ReadLId(5); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("ReadLId of a collected position = %v, want ErrNoSuchRecord", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("ReadLId of a collected position took %v", d)
	}
	// An applied record reaches the readable head one gossip round later.
	ack, err := a.Append([]byte("after"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := a.Reader().WaitHead(ack.LId, 5*time.Second); err != nil || h < ack.LId {
		t.Fatalf("head %d, %v; want it to reach LId %d", h, err, ack.LId)
	}
	recs, err := a.LogRecords()
	if err != nil || len(recs) != 1 || recs[0].LId != bound+1 {
		t.Errorf("LogRecords after collection = %d records, %v; want one at LId %d", len(recs), err, bound+1)
	}
}

// TestPipelineCarryDeferredCorrectness runs a full two-DC workload with
// the carry-deferred token policy (§6.2's alternative) and checks the same
// invariants as the park-at-queue default.
func TestPipelineCarryDeferredCorrectness(t *testing.T) {
	cfg := fastCfg(0, 2)
	cfg.CarryDeferred = true
	cfg.Queues = 3
	a := startDC(t, cfg)
	cfgB := fastCfg(1, 2)
	cfgB.CarryDeferred = true
	cfgB.Queues = 3
	b := startDC(t, cfgB)
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	const n = 150
	for i := 0; i < n; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
		b.AppendAsync([]byte(fmt.Sprintf("b%d", i)), nil)
	}
	deadline := time.Now().Add(15 * time.Second)
	for a.AppliedCount() < 2*n || b.AppliedCount() < 2*n {
		if time.Now().After(deadline) {
			t.Fatalf("carry-deferred convergence stalled: %d/%d", a.AppliedCount(), b.AppliedCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, dc := range []*Datacenter{a, b} {
		dc.Quiesce(30*time.Millisecond, 5*time.Second)
		recs, err := dc.LogRecords()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2*n {
			t.Fatalf("%s: %d records", dc.Self(), len(recs))
		}
		if err := CheckCausalInvariant(recs); err != nil {
			t.Error(err)
		}
	}
}
