package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/scale"
)

func TestWriteBenchEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := WriteBench(path, "x", Measured, map[string]int{"v": 7}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(raw)-1] != '\n' {
		t.Error("artifact not newline-terminated")
	}
	var doc struct {
		Schema string         `json:"schema"`
		Bench  string         `json:"bench"`
		Kind   string         `json:"kind"`
		Data   map[string]int `json:"data"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "repro/bench/v2" || doc.Bench != "x" || doc.Kind != "measured" || doc.Data["v"] != 7 {
		t.Fatalf("envelope = %+v", doc)
	}
}

// jsonKeys returns the sorted top-level JSON keys of v's zero value.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]json.RawMessage{}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchGolden lists, per bench name (and per nested row type), a zero
// payload and the JSON keys it must marshal to.
var benchGolden = map[string]struct {
	payload any
	keys    []string
}{
	"overload": {OverloadResult{}, []string{
		"admission_off", "admission_on", "credits", "high_water_ratio",
		"maintainer_rate", "offered_rate", "p99_ratio",
	}},
	"overload-arm": {OverloadArm{}, []string{
		"accept_p50_ms", "accept_p99_ms", "accepted", "admission",
		"applied_per_sec", "credit_high_water", "offered",
		"probe_count", "probe_p50_ms", "probe_p99_ms", "probe_sheds", "shed",
	}},
	"readpath": {ReadPathResult{}, []string{
		"maintainers", "range_read_recs_per_sec", "range_speedup", "records",
		"single_read_recs_per_sec", "tail_poll_records", "tail_poll_recs_per_sec",
		"tail_push_records", "tail_push_recs_per_sec", "tail_speedup",
	}},
	"trace": {TraceLatResult{}, []string{
		"append_stages", "appends", "coverage", "covered_ns",
		"measured_e2e_ns", "pipeline_stages", "stages", "traces",
	}},
	"scale": {scale.Result{}, []string{
		"achieved_per_sec", "completed", "converge_ms", "dcs", "duration_sec",
		"errors", "event_log", "event_log_fingerprint", "max_ms", "mean_ms",
		"note", "offered", "offered_per_sec", "p50_ms", "p999_ms", "p99_ms",
		"scenario", "seed", "sessions", "shed_client", "shed_server",
		"target_per_sec", "wan_events",
	}},
	"scale-bench": {ScaleBench{}, []string{"scenarios", "seed"}},
	"durability": {DurabilityResult{}, []string{
		"all_ack_slow_p99_ratio", "fsync_arms", "fsync_delay_ms",
		"group_p99_ratio_64", "quorum_arms", "quorum_slow_p99_ratio",
		"slow_factor",
	}},
	"durability-fsync-arm": {FsyncArm{}, []string{
		"achieved_per_sec", "appenders", "completed", "errors", "fsyncs",
		"fsyncs_per_op", "max_ms", "offered", "offered_per_sec",
		"p50_ms", "p99_ms", "policy",
	}},
	"elastic": {ElasticResult{}, []string{
		"appends_after", "appends_before", "appends_during", "autoscale_ticks",
		"boundary_lid", "duplicate_lids", "epochs", "grow_triggered",
		"lost_lids", "maintainers_after", "maintainers_before",
		"migration_done", "p99_after_ms", "p99_before_ms", "p99_bounded",
		"p99_during_ms", "records_migrated", "seal_retries", "unique_lids",
	}},
	"durability-quorum-arm": {QuorumArm{}, []string{
		"achieved_per_sec", "ack", "completed", "errors", "name",
		"offered", "p50_ms", "p99_ms", "quorum_fanout",
		"slow_durable_lag", "slow_member",
	}},
}

// TestBenchSchemaGolden pins the top-level JSON keys of every BENCH_*
// payload. A failing diff here means a published artifact changed shape:
// either revert the rename, or update the golden AND whatever dashboards
// consume the artifact.
func TestBenchSchemaGolden(t *testing.T) {
	for name, g := range benchGolden {
		if got := jsonKeys(t, g.payload); !reflect.DeepEqual(got, g.keys) {
			t.Errorf("%s payload keys changed:\n got  %v\n want %v", name, got, g.keys)
		}
	}
}
