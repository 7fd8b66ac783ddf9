// Command bench is the repository's benchmark: it builds each deployment
// in-process on loopback TCP, drives it with seeded load, checks the
// outputs, and prints every metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// runCtx is one run of one workload.
type runCtx struct {
	workload string
	seed     uint64
	paced    time.Duration
	bulk     time.Duration
	traced   bool
	workDir  string
	rec      *recorder // traced run only
	// atTraceOn, when set, runs just before a traced run starts recording,
	// for counters that must be read over exactly the recorded part.
	atTraceOn func()
	stamp     stampInfo

	metrics    map[string]value // end-to-end (untraced) or per-layer (traced)
	diag       map[string]value // printed, never gated
	attempted  uint64
	failed     uint64
	violations []string
}

func (rc *runCtx) violate(format string, args ...any) {
	rc.violations = append(rc.violations, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per run, paced plus bulk phase; each workload splits them its own way")
		traced   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files under bench/out/")
		layers   = flag.Bool("layers", false, "run only the per-layer isolations and print the ledger")
		outFile  = flag.String("out", "", "also write the runs, stamped, to this JSON file")
		history  = flag.Bool("append", false, "also add the runs as one line to bench/history.jsonl")
		aa       = flag.Int("aa", 0, "A/A harness: run this many sets of all workloads in fresh processes and compare them")
		specOut  = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the tables in spec.go give it, and exit")
	)
	flag.Parse()
	if *specOut {
		doc, err := benchmarkJSON(defaultSeconds)
		if err != nil {
			fatal("bench: %v", err)
		}
		fmt.Println(string(doc))
		return
	}
	if *seconds < 1 {
		fatal("bench: -seconds must be at least 1")
	}
	if *aa > 0 {
		if !runAA(*aa, *seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	// The program's own tracing and slow-operation log stay off: the
	// end-to-end run measures the code, and the traced run measures it from
	// outside.
	trace.SetSampling(0)
	trace.SetSlowOpThreshold(0)

	if *layers {
		*traced = 1
	}
	var todo []workloadSpec
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal("bench: unknown workload %q", *workload)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprint(os.Getpid())))
	if err != nil {
		fatal("bench: %v", err)
	}
	ok := true
	stamp := newStamp(*seed, *seconds)
	rf := reportFile{Stamp: stamp}
	for _, w := range todo {
		rc := &runCtx{
			workload: w.Name, seed: *seed, traced: *traced == 1,
			paced:   time.Duration(float64(*seconds) * w.pacedShare * float64(time.Second)),
			workDir: filepath.Join(work, w.Name),
			metrics: map[string]value{}, diag: map[string]value{},
		}
		if rc.traced {
			rc.rec = newRecorder()
		}
		rc.bulk = time.Duration(*seconds)*time.Second - rc.paced
		rc.stamp = stamp
		if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
			fatal("bench: %v", err)
		}
		// The isolations go first, in the fresh process: after a workload
		// the heap it leaves behind slows them by up to a factor of two.
		if rc.traced {
			runIsolations(rc)
		}
		if !*layers {
			if err := w.run(rc); err != nil {
				rc.violate("run failed: %v", err)
			}
		}
		removeAll(work)
		ok = emit(rc) && ok
		rf.Runs = append(rf.Runs, reportOf(rc))
		if *layers {
			break // the isolations do not depend on the workload
		}
	}
	if *outFile != "" {
		if err := writeReport(*outFile, rf); err != nil {
			fatal("bench: %v", err)
		}
	}
	if *history {
		if err := appendHistory(rf); err != nil {
			fatal("bench: %v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// emit prints the run's metrics as a table and, as the last line, the JSON
// object the benchmark contract asks for. It reports whether the run was
// correct.
func emit(rc *runCtx) bool {
	rc.metrics = finalMetrics(rc)
	fmt.Printf("== %s  seed %d  paced %s  bulk %s  traced %v\n", rc.workload, rc.seed, rc.paced, rc.bulk, rc.traced)
	printTable(rc.metrics)
	if len(rc.diag) > 0 {
		fmt.Println("-- diagnostics (not gated)")
		printTable(rc.diag)
	}
	if rc.traced {
		printLayerLedger(rc)
	}
	for _, v := range rc.violations {
		fmt.Println("VIOLATION:", v)
	}
	correct := len(rc.violations) == 0
	attempted := rc.attempted
	if attempted == 0 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, rc.failed, rc.metrics})
	if err != nil {
		fatal("bench: %v", err)
	}
	fmt.Println(string(line))
	return correct
}

// finalMetrics returns exactly the metrics the run's mode owes: every
// end-to-end metric from an untraced run, every per-layer metric from a
// traced one. A per-layer metric the workload has nothing to say about reads
// 0; a missing or non-finite end-to-end metric is a violation. Anything else
// the run recorded becomes a diagnostic.
func finalMetrics(rc *runCtx) map[string]value {
	specs := endToEnd
	if rc.traced {
		specs = perLayer
	}
	out := make(map[string]value, len(specs))
	for _, sp := range specs {
		v, ok := rc.metrics[sp.Name]
		delete(rc.metrics, sp.Name)
		switch {
		case !ok && rc.traced:
			v = value{0, sp.Unit, 0}
		case !ok:
			rc.violate("metric %s was not measured", sp.Name)
			continue
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			rc.violate("metric %s is not finite", sp.Name)
			continue
		}
		v.Unit = sp.Unit
		out[sp.Name] = v
	}
	for name, v := range rc.metrics {
		rc.diag[name] = v
	}
	return out
}

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}

func printTable(m map[string]value) {
	for _, n := range sortedKeys(m) {
		v := m[n]
		fmt.Printf("  %-36s %14.4f %-10s n=%d\n", n, v.Value, v.Unit, v.n)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
