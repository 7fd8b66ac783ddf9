package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// BenchSchema versions the envelope every BENCH_*.json artifact shares.
// Bump only when the envelope itself changes shape (v2 added "kind"); the
// per-bench payload under "data" is versioned by the schema-golden test.
const BenchSchema = "repro/bench/v2"

// BenchDoc is the shared envelope: which bench produced the artifact,
// whether its numbers are modelled or measured, and its typed payload.
// Downstream tooling dispatches on Bench without guessing from filenames,
// and a schema bump is a visible diff in every artifact at once.
type BenchDoc struct {
	Schema string `json:"schema"`
	Bench  string `json:"bench"`
	Kind   Kind   `json:"kind"`
	Data   any    `json:"data"`
}

// WriteBench emits one benchmark artifact: the payload wrapped in the
// BenchDoc envelope, indented, newline-terminated, written to path.
func WriteBench(path, bench string, kind Kind, data any) error {
	buf, err := json.MarshalIndent(BenchDoc{Schema: BenchSchema, Bench: bench, Kind: kind, Data: data}, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: marshal %s bench: %w", bench, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("cluster: write %s: %w", path, err)
	}
	return nil
}

// Metric is one named headline number of a report. The name doubles as
// the unit of testing.B.ReportMetric, so it carries no whitespace.
type Metric struct {
	Name  string
	Value float64
}

// Bar is one acceptance bar: Got must stand in relation Op ("<=" or ">=")
// to Want.
type Bar struct {
	Name string
	Got  float64
	Op   string
	Want float64
}

// Err reports a missed bar.
func (b Bar) Err() error {
	if (b.Op == "<=" && b.Got <= b.Want) || (b.Op == ">=" && b.Got >= b.Want) {
		return nil
	}
	return fmt.Errorf("%s: got %.4g, acceptance bar %s %.4g", b.Name, b.Got, b.Op, b.Want)
}

// Report is what one experiment run hands back: the tables and lines to
// print, its headline metrics, the acceptance bars with the values they
// were measured at, and the artifact payload (nil when the experiment
// writes none).
type Report struct {
	text    strings.Builder
	Metrics []Metric
	Bars    []Bar
	Data    any
}

// Printf appends to the printed text; a *metrics.Table prints under %s.
func (r *Report) Printf(format string, a ...any) { fmt.Fprintf(&r.text, format, a...) }

// Text is everything printed so far.
func (r *Report) Text() string { return r.text.String() }

// Metric records a headline number; spaces in name become dashes.
func (r *Report) Metric(name string, v float64) {
	r.Metrics = append(r.Metrics, Metric{strings.ReplaceAll(name, " ", "-"), v})
}

// Bar records an acceptance bar.
func (r *Report) Bar(name string, got float64, op string, want float64) {
	r.Bars = append(r.Bars, Bar{name, got, op, want})
}
