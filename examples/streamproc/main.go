// Stream-processing example: a Photon-style continuous join of two event
// streams produced at different datacenters (§4.2). Clicks arrive at DC0,
// search queries at DC1; the joiner runs at DC0 over the replicated log
// and pairs each click with its query exactly once — the log supplies
// persistence, replication, ordering, and exactly-once semantics.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/streamproc"
)

func newDC(self core.DCID) *chariots.Datacenter {
	dc, err := chariots.New(chariots.Config{
		Self:           self,
		NumDCs:         2,
		Maintainers:    3,
		Indexers:       1,
		FlushThreshold: 8,
		SendThreshold:  8,
	})
	if err != nil {
		log.Fatal(err)
	}
	return dc
}

func main() {
	clicksDC, queriesDC := newDC(0), newDC(1)
	clicksDC.Start()
	queriesDC.Start()
	defer clicksDC.Stop()
	defer queriesDC.Stop()
	clicksDC.ConnectTo(1, queriesDC.Receivers())
	queriesDC.ConnectTo(0, clicksDC.Receivers())

	// The join pairs click and query events sharing a session id.
	var mu sync.Mutex
	joined := map[string]string{}
	join := streamproc.NewJoin("clicks", "queries",
		func(ev streamproc.Event) string { return string(ev.Payload[:8]) }, // session id prefix
		func(key string, click, query streamproc.Event) {
			mu.Lock()
			joined[key] = fmt.Sprintf("click@%s + query@%s", click.Origin, query.Origin)
			mu.Unlock()
		})

	// Readers partition the log across maintainers — no central
	// dispatcher (each reader consumes one maintainer's records).
	group := streamproc.NewReaderGroup("ad-join", clicksDC, join.Handler(), "clicks", "queries")
	group.Start()
	defer group.Stop()

	// Publishers at their home datacenters.
	clicks := streamproc.NewPublisher(clicksDC)
	queries := streamproc.NewPublisher(queriesDC)
	const sessions = 10
	fmt.Printf("publishing %d click/query pairs at two datacenters...\n", sessions)
	for i := 0; i < sessions; i++ {
		session := fmt.Sprintf("sess-%03d", i)
		clicks.Publish("clicks", []byte(session+" clicked ad #42"))
		queries.Publish("queries", []byte(session+" searched 'chariots'"))
	}

	// Wait for every pair to join.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if join.Matched.Value() >= sessions {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("only %d/%d pairs joined", join.Matched.Value(), sessions)
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	keys := make([]string, 0, len(joined))
	for k := range joined {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s: %s\n", k, joined[k])
	}
	mu.Unlock()
	fmt.Printf("joined %d pairs exactly once (unmatched buffers: %d left, %d right)\n",
		join.Matched.Value(), join.PendingLeft(), join.PendingRight())

	// Exactly-once across restart: a second group instance recovers its
	// checkpoints from the log itself and reprocesses nothing.
	clicksDC.Quiesce(50*time.Millisecond, 5*time.Second)
	var reprocessed int
	group2 := streamproc.NewReaderGroup("ad-join", clicksDC, func(ev streamproc.Event) error {
		reprocessed++
		return nil
	}, "clicks", "queries")
	if err := group2.Recover(); err != nil {
		log.Fatal(err)
	}
	group2.Start()
	time.Sleep(100 * time.Millisecond)
	group2.Stop()
	fmt.Printf("after simulated restart + checkpoint recovery: %d events reprocessed (want 0)\n", reprocessed)
}
