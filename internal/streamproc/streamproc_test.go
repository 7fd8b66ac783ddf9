package streamproc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
)

func streamCfg(self core.DCID, numDCs int) chariots.Config {
	return chariots.Config{
		Self:           self,
		NumDCs:         numDCs,
		Maintainers:    3,
		Indexers:       1,
		PlacementBatch: 8,
		FlushThreshold: 8,
		SendThreshold:  8,
	}
}

func startDC(t *testing.T, self core.DCID, numDCs int) *chariots.Datacenter {
	t.Helper()
	dc, err := chariots.New(streamCfg(self, numDCs))
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	t.Cleanup(dc.Stop)
	return dc
}

type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) handler(ev Event) error {
	c.mu.Lock()
	c.events = append(c.events, Event{Topic: ev.Topic, Origin: ev.Origin, LId: ev.LId,
		Payload: append([]byte(nil), ev.Payload...)})
	c.mu.Unlock()
	return nil
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func waitFor(t *testing.T, cond func() bool, timeout time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPublishAndConsume(t *testing.T) {
	dc := startDC(t, 0, 1)
	pub := NewPublisher(dc)
	col := &collector{}
	grp := NewReaderGroup("g1", dc, col.handler, "clicks")
	grp.Start()
	defer grp.Stop()

	const n = 200
	for i := 0; i < n; i++ {
		pub.Publish("clicks", []byte(fmt.Sprintf("click-%d", i)))
	}
	waitFor(t, func() bool { return col.len() >= n }, 10*time.Second, "all events")
	if got := grp.Processed.Value(); got != n {
		t.Errorf("Processed = %d, want %d", got, n)
	}
	// Events must arrive exactly once.
	seen := map[string]bool{}
	col.mu.Lock()
	for _, ev := range col.events {
		k := string(ev.Payload)
		if seen[k] {
			t.Fatalf("event %s delivered twice", k)
		}
		seen[k] = true
	}
	col.mu.Unlock()
}

func TestTopicFiltering(t *testing.T) {
	dc := startDC(t, 0, 1)
	pub := NewPublisher(dc)
	col := &collector{}
	grp := NewReaderGroup("g1", dc, col.handler, "wanted")
	grp.Start()
	defer grp.Stop()

	for i := 0; i < 50; i++ {
		pub.Publish("wanted", []byte{byte(i)})
		pub.Publish("unwanted", []byte{byte(i)})
	}
	waitFor(t, func() bool { return col.len() >= 50 }, 10*time.Second, "wanted events")
	time.Sleep(20 * time.Millisecond)
	if got := col.len(); got != 50 {
		t.Errorf("received %d events, want exactly 50", got)
	}
	if grp.Skipped.Value() == 0 {
		t.Error("no events skipped despite unsubscribed topic")
	}
}

func TestExactlyOnceAcrossRestart(t *testing.T) {
	dc := startDC(t, 0, 1)
	pub := NewPublisher(dc)

	col1 := &collector{}
	grp1 := NewReaderGroup("group", dc, col1.handler, "t")
	grp1.Start()
	const phase1 = 100
	for i := 0; i < phase1; i++ {
		pub.Publish("t", []byte(fmt.Sprintf("p1-%d", i)))
	}
	waitFor(t, func() bool { return col1.len() >= phase1 }, 10*time.Second, "phase 1")
	grp1.Stop() // give checkpoints a moment to land
	dc.Quiesce(30*time.Millisecond, 5*time.Second)

	// "Crash" and restart: a new group instance recovers checkpoints and
	// must not reprocess phase-1 events.
	col2 := &collector{}
	grp2 := NewReaderGroup("group", dc, col2.handler, "t")
	if err := grp2.Recover(); err != nil {
		t.Fatal(err)
	}
	grp2.Start()
	defer grp2.Stop()
	const phase2 = 60
	for i := 0; i < phase2; i++ {
		pub.Publish("t", []byte(fmt.Sprintf("p2-%d", i)))
	}
	waitFor(t, func() bool { return col2.len() >= phase2 }, 10*time.Second, "phase 2")
	time.Sleep(30 * time.Millisecond)

	col2.mu.Lock()
	defer col2.mu.Unlock()
	for _, ev := range col2.events {
		if string(ev.Payload[:2]) == "p1" {
			t.Fatalf("phase-1 event %q reprocessed after recovery", ev.Payload)
		}
	}
	if len(col2.events) != phase2 {
		t.Errorf("phase 2 delivered %d events, want %d", len(col2.events), phase2)
	}
}

func TestMultiDCStreams(t *testing.T) {
	a := startDC(t, 0, 2)
	b := startDC(t, 1, 2)
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	pubA := NewPublisher(a)
	pubB := NewPublisher(b)
	col := &collector{}
	// The analysis runs at A but must see B's events too.
	grp := NewReaderGroup("join", a, col.handler, "events")
	grp.Start()
	defer grp.Stop()

	const n = 60
	for i := 0; i < n; i++ {
		pubA.Publish("events", []byte(fmt.Sprintf("A-%d", i)))
		pubB.Publish("events", []byte(fmt.Sprintf("B-%d", i)))
	}
	waitFor(t, func() bool { return col.len() >= 2*n }, 15*time.Second, "both streams")
	// Origin attribution must be correct.
	col.mu.Lock()
	defer col.mu.Unlock()
	origins := map[core.DCID]int{}
	for _, ev := range col.events {
		origins[ev.Origin]++
	}
	if origins[0] != n || origins[1] != n {
		t.Errorf("origin counts = %v, want %d each", origins, n)
	}
}

func TestPhotonStyleJoin(t *testing.T) {
	a := startDC(t, 0, 2)
	b := startDC(t, 1, 2)
	a.ConnectTo(1, b.Receivers())
	b.ConnectTo(0, a.Receivers())

	// Clicks arrive at A, queries at B (Photon's setup); the join runs
	// at A over the replicated log.
	var mu sync.Mutex
	matches := map[string]bool{}
	join := NewJoin("clicks", "queries",
		func(ev Event) string { return string(ev.Payload) },
		func(key string, l, r Event) {
			mu.Lock()
			if matches[key] {
				t.Errorf("pair %s emitted twice", key)
			}
			matches[key] = true
			mu.Unlock()
		})
	grp := NewReaderGroup("join", a, join.Handler(), "clicks", "queries")
	grp.Start()
	defer grp.Stop()

	pubA := NewPublisher(a)
	pubB := NewPublisher(b)
	const n = 40
	for i := 0; i < n; i++ {
		pubA.Publish("clicks", []byte(fmt.Sprintf("id-%d", i)))
		pubB.Publish("queries", []byte(fmt.Sprintf("id-%d", i)))
	}
	waitFor(t, func() bool { return join.Matched.Value() >= n }, 15*time.Second, "all joins")
	if join.PendingLeft() != 0 || join.PendingRight() != 0 {
		t.Errorf("unmatched leftovers: %d left, %d right", join.PendingLeft(), join.PendingRight())
	}
}

func TestHandlerErrorStopsGroup(t *testing.T) {
	dc := startDC(t, 0, 1)
	pub := NewPublisher(dc)
	grp := NewReaderGroup("g", dc, func(ev Event) error {
		return fmt.Errorf("poison")
	}, "t")
	grp.Start()
	pub.Publish("t", []byte("boom"))
	waitFor(t, func() bool { return grp.Err() != nil }, 10*time.Second, "handler error")
	grp.Stop()
	if grp.Err() == nil {
		t.Fatal("error not surfaced")
	}
}

func TestCheckpointCodec(t *testing.T) {
	buf := encodeCheckpoint(3, 999)
	part, lid, ok := decodeCheckpoint(buf)
	if !ok || part != 3 || lid != 999 {
		t.Errorf("decode = %d,%d,%v", part, lid, ok)
	}
	if _, _, ok := decodeCheckpoint([]byte("short")); ok {
		t.Error("short checkpoint accepted")
	}
}
