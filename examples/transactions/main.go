// Message Futures example (§4.3): strongly consistent bank transfers on
// two geo-replicated datacenters, with the causally ordered shared log as
// the only coordination medium. Conflicting concurrent transactions are
// detected through the log's history exchange; commit latency is governed
// by the WAN round trip, not by extra coordination messages.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/msgfutures"
)

func newDC(self core.DCID) *chariots.Datacenter {
	dc, err := chariots.New(chariots.Config{
		Self:        self,
		NumDCs:      2,
		Maintainers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	return dc
}

func main() {
	dcA, dcB := newDC(0), newDC(1)
	dcA.Start()
	dcB.Start()
	defer dcA.Stop()
	defer dcB.Stop()

	const wan = 15 * time.Millisecond
	link := func(rxs []chariots.ReceiverAPI) []chariots.ReceiverAPI {
		out := make([]chariots.ReceiverAPI, len(rxs))
		for i, rx := range rxs {
			out[i] = chariots.NewLatencyLink(rx, wan)
		}
		return out
	}
	dcA.ConnectTo(1, link(dcB.Receivers()))
	dcB.ConnectTo(0, link(dcA.Receivers()))

	tmA := msgfutures.NewManager(dcA)
	tmB := msgfutures.NewManager(dcB)
	defer tmA.Stop()
	defer tmB.Stop()

	// Seed two accounts from A.
	seed := tmA.Begin()
	seed.Write("alice", "100")
	seed.Write("bob", "100")
	start := time.Now()
	if err := seed.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seed committed in %v (WAN one-way %v → commit needs ≥ 2×%v)\n",
		time.Since(start).Round(time.Millisecond), wan, wan)

	waitValue(tmB, "alice", "100")

	// A successful transfer at A.
	transfer := tmA.Begin()
	a, _ := transfer.Read("alice")
	b, _ := transfer.Read("bob")
	transfer.Write("alice", sub(a, 30))
	transfer.Write("bob", add(b, 30))
	start = time.Now()
	if err := transfer.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transfer A→: alice-30, bob+30 committed in %v\n", time.Since(start).Round(time.Millisecond))
	waitValue(tmB, "bob", "130")
	fmt.Println("replica B agrees: alice=70 bob=130")

	// Concurrent conflicting withdrawals at both sites: both touch
	// alice; the deterministic rule commits exactly one, at both sites.
	fmt.Println("\nconcurrent conflicting withdrawals at A and B:")
	txA := tmA.Begin()
	v, _ := txA.Read("alice")
	txA.Write("alice", sub(v, 50))
	txB := tmB.Begin()
	w, _ := txB.Read("alice")
	txB.Write("alice", sub(w, 70))

	errCh := make(chan error, 2)
	go func() { errCh <- txA.Commit() }()
	go func() { errCh <- txB.Commit() }()
	res1, res2 := <-errCh, <-errCh
	for _, err := range []error{res1, res2} {
		switch {
		case err == nil:
			fmt.Println("  one withdrawal committed")
		case errors.Is(err, msgfutures.ErrAborted):
			fmt.Printf("  one withdrawal aborted: %v\n", err)
		default:
			log.Fatal(err)
		}
	}

	// Both replicas converge to the same surviving balance.
	deadline := time.Now().Add(10 * time.Second)
	for {
		va, _ := tmA.ReadCommitted("alice")
		vb, _ := tmB.ReadCommitted("alice")
		if va == vb && (va == "20" || va == "0") {
			fmt.Printf("replicas agree: alice=%s at both datacenters\n", va)
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("replicas disagree: A=%q B=%q", va, vb)
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("outcomes at A: %d committed, %d aborted\n", tmA.Committed.Value(), tmA.Aborted.Value())
}

func waitValue(m *msgfutures.Manager, key, want string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := m.ReadCommitted(key); ok && v == want {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("%s never became %s", key, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func add(v string, d int) string { return num(v, d) }
func sub(v string, d int) string { return num(v, -d) }

func num(v string, d int) string {
	var n int
	fmt.Sscanf(v, "%d", &n)
	return fmt.Sprint(n + d)
}
