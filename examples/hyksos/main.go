// Hyksos example: the paper's Figure 2 walkthrough on two live
// datacenters — a causally consistent key-value store with get
// transactions, built entirely on the Chariots shared log (§4.1).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/hyksos"
)

func newDC(self core.DCID) *chariots.Datacenter {
	dc, err := chariots.New(chariots.Config{
		Self:        self,
		NumDCs:      2,
		Maintainers: 2,
		Indexers:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	return dc
}

func main() {
	// Two datacenters, A and B, connected by a 20 ms (one-way) WAN.
	dcA, dcB := newDC(0), newDC(1)
	dcA.Start()
	dcB.Start()
	defer dcA.Stop()
	defer dcB.Stop()

	const wan = 20 * time.Millisecond
	link := func(rxs []chariots.ReceiverAPI) []chariots.ReceiverAPI {
		out := make([]chariots.ReceiverAPI, len(rxs))
		for i, rx := range rxs {
			out[i] = chariots.NewLatencyLink(rx, wan)
		}
		return out
	}
	dcA.ConnectTo(1, link(dcB.Receivers()))
	dcB.ConnectTo(0, link(dcA.Receivers()))

	storeA := hyksos.NewStore(dcA)
	storeB := hyksos.NewStore(dcB)
	alice := storeA.NewSession() // client at datacenter A
	bob := storeB.NewSession()   // client at datacenter B

	// Time 1 (Figure 2): concurrent writes — the two puts to x are not
	// causally related, so A and B may order them differently.
	fmt.Println("time 1: concurrent puts at both datacenters")
	must(alice.Put("y", "20"))
	must(alice.Put("x", "30"))
	must(bob.Put("x", "10"))
	must(bob.Put("z", "40"))

	// Local reads before propagation reflect only local state.
	xA, _ := alice.Get("x")
	xB, _ := bob.Get("x")
	fmt.Printf("  before propagation: x at A = %s, x at B = %s (sites may disagree on concurrent writes)\n", xA, xB)

	// Wait for the four records to replicate both ways.
	waitApplied(dcA, 1, 2)
	waitApplied(dcB, 0, 2)
	xA, _ = alice.Get("x")
	xB, _ = bob.Get("x")
	fmt.Printf("  after propagation:  x at A = %s, x at B = %s\n", xA, xB)

	// Time 2: one more write on each side.
	fmt.Println("time 2: Put(y,50) at A and Put(z,60) at B")
	must(alice.Put("y", "50"))
	must(bob.Put("z", "60"))

	// A get transaction pins the head of the log and reads a consistent
	// snapshot: a put appended after the pin is invisible even though it
	// is newer (the paper's y=50 case).
	snap, err := alice.GetTxn("x", "y", "z")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  get_txn at A (snapshot at LId %d): %v\n", snap.AtLId, snap.Values)

	// Time 3: full propagation; both sides converge on y and z.
	waitApplied(dcA, 1, 3)
	waitApplied(dcB, 0, 3)
	snapA, _ := storeA.NewSession().GetTxn("x", "y", "z")
	snapB, _ := storeB.NewSession().GetTxn("x", "y", "z")
	fmt.Println("time 3: after full propagation")
	fmt.Printf("  snapshot at A: %v\n", snapA.Values)
	fmt.Printf("  snapshot at B: %v\n", snapB.Values)

	// Causal hand-off: Bob reads y=50 (which happened-after Alice's
	// writes) and then writes y=51; every datacenter must order 51
	// after 50.
	bob2 := storeB.NewSession()
	y, _ := bob2.Get("y")
	must(bob2.Put("y", incr(y)))
	alice2 := storeA.NewSession()
	if !alice2.WaitFor(bob2.Context(), 5*time.Second) {
		log.Fatal("causal hand-off never arrived at A")
	}
	y2, _ := alice2.Get("y")
	fmt.Printf("causal chain: B read y=%s, wrote y=%s; A now reads y=%s\n", y, incr(y), y2)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func incr(v string) string {
	var n int
	fmt.Sscanf(v, "%d", &n)
	return fmt.Sprint(n + 1)
}

// waitApplied blocks until dc has applied host's records through toid.
func waitApplied(dc *chariots.Datacenter, host core.DCID, toid uint64) {
	if !dc.WaitForTOId(host, toid, 10*time.Second) {
		log.Fatalf("DC%d never applied %s's record %d", dc.Self(), host, toid)
	}
}
