package metrics

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenFamilies is the canonical list of metric family names. It must
// stay in sync with both the registration sites in the source tree and
// the table in DESIGN.md §5.3 — TestMetricFamiliesGolden fails on drift
// in either direction, which is how the doc table went stale once before.
var goldenFamilies = []string{
	"chariots_applied_records_total",
	"chariots_applied_toid",
	"chariots_credit_capacity_records",
	"chariots_credit_high_water_records",
	"chariots_credit_in_use_records",
	"chariots_credit_shed_total",
	"chariots_credit_waits_total",
	"chariots_feed_batches",
	"chariots_filter_dropped_total",
	"chariots_filter_overflow_total",
	"chariots_queue_applied_total",
	"chariots_queue_buffered_batches",
	"chariots_replication_lag_records",
	"chariots_replication_lag_seconds",
	"chariots_sender_errors_total",
	"chariots_sender_shipped_total",
	"chariots_stage_batch_records",
	"chariots_stage_handoff_wait_seconds",
	"chariots_stage_inbox_batches",
	"chariots_stage_processed_total",
	"chariots_token_passes_total",
	"flstore_admission_backlog_budget_records",
	"flstore_admission_backlog_records",
	"flstore_admission_backlog_rejected_total",
	"flstore_admission_limiter_rejected_total",
	"flstore_append_seconds",
	"flstore_appends_total",
	"flstore_gossip_peer_silent",
	"flstore_gossip_round_age_seconds",
	"flstore_gossip_rounds_total",
	"flstore_head_lid",
	"flstore_hosted_ranges",
	"flstore_multi_reads_total",
	"flstore_next_lid",
	"flstore_order_buffer_records",
	"flstore_pending_assigned_slots",
	"flstore_range_batch_records",
	"flstore_range_reads_total",
	"flstore_range_records_total",
	"flstore_read_seconds",
	"flstore_rejected_total",
	"flstore_store_scans_total",
	"flstore_stored_records",
	"flstore_tail_cache_hits_total",
	"flstore_tail_cache_misses_total",
	"flstore_tail_waits_total",
	"flstore_tail_wake_seconds",
	"replica_ack_seconds",
	"replica_append_failovers_total",
	"replica_appends_total",
	"replica_catchup_records_total",
	"replica_durable_watermark",
	"replica_evictions_total",
	"replica_fanout_failures_total",
	"replica_fanout_retries_total",
	"replica_invalidation_backlog",
	"replica_local_read_blocks_total",
	"replica_local_read_hits_total",
	"replica_member_state",
	"replica_read_failovers_total",
	"replica_readmissions_total",
	"replica_valid_watermark",
	"rpc_client_backoff_seconds",
	"rpc_client_dial_failures_total",
	"rpc_client_dials_total",
	"rpc_client_redials_total",
	"rpc_client_retries_total",
	"rpc_server_bytes_in_total",
	"rpc_server_bytes_out_total",
	"rpc_server_call_seconds",
	"rpc_server_errors_total",
	"rpc_server_inflight_requests",
	"scale_offered_total",
	"scale_sessions_active",
	"scale_shed_total",
	"storage_commit_window_bytes",
	"storage_commit_window_waiters",
	"storage_disk_bytes",
	"storage_fsync_seconds",
	"storage_fsync_total",
	"storage_records",
	"storage_segments",
}

// familyPat matches a metric family name of one of the repo's prefixed
// namespaces, as a whole string literal (code) or backticked token (doc).
var familyPat = regexp.MustCompile(`^(rpc|flstore|replica|storage|chariots|scale)_[a-z][a-z0-9_]*$`)

func diffSets(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	var missing, extra []string
	for name := range want {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("%s is missing families: %v", what, missing)
	}
	if len(extra) > 0 {
		t.Errorf("%s has families not in the golden list: %v", what, extra)
	}
}

func TestMetricFamiliesGolden(t *testing.T) {
	golden := make(map[string]bool, len(goldenFamilies))
	for _, name := range goldenFamilies {
		golden[name] = true
	}

	// 1. Every family name literal in non-test source must be golden, and
	// every golden family must appear somewhere in source.
	strLit := regexp.MustCompile(`"([a-z][a-z0-9_]*)"`)
	inCode := make(map[string]bool)
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range strLit.FindAllStringSubmatch(string(src), -1) {
				if familyPat.MatchString(m[1]) {
					inCode[m[1]] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	diffSets(t, "source tree", inCode, golden)

	// 2. The DESIGN.md §5.3 table must list exactly the golden families.
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(doc), "### 5.3")
	if !found {
		t.Fatal("DESIGN.md has no §5.3 section")
	}
	if i := strings.Index(rest, "\n### "); i >= 0 {
		rest = rest[:i]
	}
	tick := regexp.MustCompile("`([^`]+)`")
	inDoc := make(map[string]bool)
	for _, m := range tick.FindAllStringSubmatch(rest, -1) {
		for _, tok := range strings.Split(m[1], "/") {
			name := strings.TrimSpace(tok)
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if familyPat.MatchString(name) {
				inDoc[name] = true
			}
		}
	}
	diffSets(t, "DESIGN.md §5.3", inDoc, golden)
}
