package chariots

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// findValue scrapes reg and returns the value of one series (fatal when the
// series is not registered — that is a wiring bug, not a timing issue).
func findValue(t *testing.T, reg *metrics.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	s := reg.Snapshot().Find(name, labels)
	if s == nil {
		t.Fatalf("series %s%v not registered", name, labels)
	}
	return s.Value
}

// TestPipelineMetricsMidRun drives a replicating two-datacenter pipeline
// and scrapes the registry while records are in flight: the per-stage
// series must be registered and live, and the per-remote replication lag
// must rise while the WAN link delays shipments, then drain back to zero.
func TestPipelineMetricsMidRun(t *testing.T) {
	reg := metrics.NewRegistry()

	a, err := New(fastCfg(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fastCfg(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	a.EnableMetrics(reg) // before Start: stage hooks install unsynchronized

	// Delay replication both ways so remote acknowledgement measurably
	// trails local applies.
	const wan = 50 * time.Millisecond
	wrap := func(rxs []ReceiverAPI) []ReceiverAPI {
		out := make([]ReceiverAPI, len(rxs))
		for i, rx := range rxs {
			l := NewLatencyLink(rx, wan)
			t.Cleanup(l.Close)
			out[i] = l
		}
		return out
	}
	a.ConnectTo(1, wrap(b.Receivers()))
	b.ConnectTo(0, wrap(a.Receivers()))
	a.Start()
	b.Start()
	t.Cleanup(a.Stop)
	t.Cleanup(b.Stop)

	const n = 400
	for i := 0; i < n; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("rec%d", i)), nil)
	}

	// Mid-run: replication lag toward DC 1 must be visible while the WAN
	// round trip is outstanding.
	lagLbl := map[string]string{"dc": "0", "remote": "1"}
	deadline := time.Now().Add(5 * time.Second)
	var sawRecords, sawSeconds bool
	for time.Now().Before(deadline) && !(sawRecords && sawSeconds) {
		if findValue(t, reg, "chariots_replication_lag_records", lagLbl) > 0 {
			sawRecords = true
		}
		if findValue(t, reg, "chariots_replication_lag_seconds", lagLbl) > 0 {
			sawSeconds = true
		}
		time.Sleep(time.Millisecond)
	}
	if !sawRecords || !sawSeconds {
		t.Errorf("never observed positive replication lag (records=%v seconds=%v)", sawRecords, sawSeconds)
	}

	// The exposition endpoint must render while the pipeline runs.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "chariots_stage_inbox_batches") {
		t.Error("exposition missing chariots_stage_inbox_batches")
	}

	a.Quiesce(50*time.Millisecond, 10*time.Second)

	// Every stage kind of DC 0 exports a live inbox-depth gauge and a
	// processed counter; the stages that did work counted it.
	for _, stage := range []string{"batcher", "filter", "queue"} {
		lbl := map[string]string{"dc": "0", "stage": stage}
		if findValue(t, reg, "chariots_stage_inbox_batches", lbl) < 0 {
			t.Errorf("%s inbox gauge negative", stage)
		}
		if v := findValue(t, reg, "chariots_stage_processed_total", lbl); v == 0 {
			t.Errorf("%s processed = 0, want > 0", stage)
		}
	}
	snap := reg.Snapshot()
	if s := snap.Find("chariots_stage_batch_records", map[string]string{"dc": "0", "stage": "queue"}); s == nil || s.Count == 0 {
		t.Errorf("queue batch-size histogram = %+v, want observations", s)
	}
	// What replaced the timers is observable: every flush and shipment
	// recorded how long its oldest record waited, and the token moved. The
	// count is the stage's, summed over its machines: the senders share
	// one feed, and the one that takes a hand-off drains what is queued
	// behind it, so a run may leave either sender without a shipment.
	for _, stage := range []string{"batcher", "sender"} {
		var count uint64
		for _, s := range snap.Series {
			if s.Name == "chariots_stage_handoff_wait_seconds" && s.Labels["dc"] == "0" && s.Labels["stage"] == stage {
				count += s.Count
			}
		}
		if count == 0 {
			t.Errorf("%s hand-off wait histograms have no observations", stage)
		}
	}
	if v := findValue(t, reg, "chariots_token_passes_total", map[string]string{"dc": "0"}); v == 0 {
		t.Error("token passes = 0 after applying records")
	}
	if v := findValue(t, reg, "chariots_applied_records_total", map[string]string{"dc": "0"}); v < n {
		t.Errorf("applied_records_total = %v, want >= %d", v, n)
	}
	// The embedded FLStore maintainers export through the same registry.
	if s := snap.Find("flstore_head_lid", map[string]string{"dc": "0", "maintainer": "0"}); s == nil {
		t.Error("flstore_head_lid not registered for maintainer 0")
	}

	// Once DC 1 has acknowledged everything, both lag gauges must drain
	// to zero (DC 1 ships its table when it applies our records).
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if findValue(t, reg, "chariots_replication_lag_records", lagLbl) == 0 &&
			findValue(t, reg, "chariots_replication_lag_seconds", lagLbl) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("replication lag never drained: records=%v seconds=%v",
		findValue(t, reg, "chariots_replication_lag_records", lagLbl),
		findValue(t, reg, "chariots_replication_lag_seconds", lagLbl))
}
