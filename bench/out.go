package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// runReport is one workload's run as written to -out files and to
// history.jsonl.
type runReport struct {
	Workload    string                 `json:"workload"`
	Traced      bool                   `json:"traced"`
	PacedS      float64                `json:"paced_s"`
	BulkS       float64                `json:"bulk_s"`
	Correct     bool                   `json:"correct"`
	Attempted   uint64                 `json:"attempted"`
	Failed      uint64                 `json:"failed"`
	Metrics     map[string]reportValue `json:"metrics"`
	Diagnostics map[string]reportValue `json:"diagnostics,omitempty"`
	Violations  []string               `json:"violations,omitempty"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// reportFile is what -out writes and what one line of history.jsonl holds.
type reportFile struct {
	Stamp stampInfo   `json:"stamp"`
	Runs  []runReport `json:"runs"`
}

func reportOf(rc *runCtx) runReport {
	conv := func(m map[string]value) map[string]reportValue {
		out := make(map[string]reportValue, len(m))
		for k, v := range m {
			out[k] = reportValue{v.Value, v.Unit, v.n}
		}
		return out
	}
	return runReport{
		Workload: rc.workload, Traced: rc.traced, PacedS: rc.paced.Seconds(), BulkS: rc.bulk.Seconds(),
		Correct:   len(rc.violations) == 0,
		Attempted: rc.attempted, Failed: rc.failed,
		Metrics: conv(rc.metrics), Diagnostics: conv(rc.diag), Violations: rc.violations,
	}
}

func writeReport(path string, rf reportFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// historyPath is the trajectory file beside the benchmark's sources.
func historyPath() string { return filepath.Join(filepath.Dir(outDir()), "history.jsonl") }

// appendHistory adds the run as one line to history.jsonl. Diagnostics stay
// out of the trajectory: it holds what later runs are compared with.
func appendHistory(rf reportFile) error {
	for i := range rf.Runs {
		rf.Runs[i].Diagnostics = nil
	}
	b, err := json.Marshal(rf)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(historyPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", historyPath(), err)
	}
	return f.Close()
}
