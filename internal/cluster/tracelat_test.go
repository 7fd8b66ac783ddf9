package cluster

import "testing"

// TestTraceSmoke is the trace smoke test (`make trace-smoke`): a reduced
// tracelat run whose joined span trees must cover the full record
// lifecycle — client → pipeline → maintainer → replica ack — and whose
// per-stage budget must attribute at least 90% of the latency the client
// measured end to end.
func TestTraceSmoke(t *testing.T) {
	res, err := RunTraceLat(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == 0 {
		t.Fatal("no append traces recorded")
	}
	if res.Coverage < 0.90 {
		t.Errorf("span coverage = %.3f of measured e2e latency, want >= 0.90\nstages: %+v",
			res.Coverage, res.Stages)
	}
	// FLStore leg: client entry, RPC wire hop, maintainer assignment and
	// persistence, replica fan-out ack.
	if want := []string{"client.append", "rpc.call", "maint.assign", "maint.store", "replica.ack"}; !HasStages(res.AppendStages, want...) {
		t.Errorf("append trace stages = %v, want superset of %v", res.AppendStages, want)
	}
	// Chariots leg: datacenter entry plus every pipeline stage down to the
	// embedded maintainer's ingest/store.
	if want := []string{"dc.append", "pipe.batch", "pipe.filter", "pipe.queue", "maint.ingest", "maint.store"}; !HasStages(res.PipelineStages, want...) {
		t.Errorf("pipeline trace stages = %v, want superset of %v", res.PipelineStages, want)
	}
	// The budget's stage rows must be populated and internally consistent.
	var sum int64
	for _, row := range res.Stages {
		sum += row.TotalNs
	}
	if sum != res.CoveredNs {
		t.Errorf("stage rows sum to %d ns, covered = %d ns", sum, res.CoveredNs)
	}
}
