package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stampInfo says what produced a number: every output file carries one.
type stampInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	// The knobs of the load and of the deployments, so that a number can be
	// read without the source. Phase lengths are with each run.
	Config map[string]any `json:"config"`
}

func newStamp(seed uint64, seconds int) stampInfo {
	return stampInfo{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Seed: seed, Seconds: seconds,
		Config: map[string]any{
			"record_bytes": recordBytes, "placement_round": placementRound, "sessions": logSessions,
			"fl_maintainers": flMaintainers, "fl_replication": flReplication, "fl_ack": "majority",
			"fl_quorum_fanout": false, "setup_repeats": setupRepeats,
			"log_volatile_fsync": "never", "log_durable_fsync": "group", "read_mixed_fsync": "never",
			"log_volatile_appends_s": volatileRate, "log_durable_appends_s": durableRate,
			"read_mixed_appends_s": mixedRate, "geo_appends_s": geoRate,
			"paced_batch": pacedBatch, "bulk_batch": bulkBatch,
			"preload_records": preloadRecords, "scan_window": scanWindow,
			"geo_wan_one_way_ms": ms(geoWAN), "geo_body_bytes": geoBody, "geo_burst": geoBurst,
			"geo_echo_every": geoEchoEvery, "geo_maintainers": geoMaintainers, "geo_store": "mem",
		},
	}
}

// commit reads the checkout's commit from .git without running git, or
// says "unknown" where there is no repository: the benchmark also runs from
// an exported tree.
func commit() string {
	// The root of the checkout, whether the run started there or in bench/.
	root := ".."
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		root = "."
	}
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return short(ref)
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return short(strings.TrimSpace(string(b)))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					return short(hash)
				}
			}
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
