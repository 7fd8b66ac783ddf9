package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestSelfTimes checks the self-time computation on spans whose children
// overlap each other and stick out of their parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // parent
		{ID: 2, Parent: 1, Start: 10, End: 40},  // child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps child 2: union [10,60)
		{ID: 4, Parent: 1, Start: 90, End: 130}, // sticks out: counts [90,100)
		{ID: 5, Parent: 3, Start: 35, End: 45},  // grandchild
		{ID: 6, Parent: 1, Start: 20, End: 25},  // inside child 2: adds nothing
	}
	want := []int64{100 - 50 - 10, 30, 30 - 10, 40, 10, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

// TestResolve checks the joins: a member call to its operation by request
// id, an rpc call to the member call containing it, a server-side call by
// kind, maintainer and key, a storage call by containment.
func TestResolve(t *testing.T) {
	req := reqID(0, 7)
	spans := []span{
		{Kind: kClientAppend, Actor: 0, Node: -1, Req: req, Start: 0, End: 100},
		{Kind: kMemberAppend, Actor: 0, Node: 1, Req: req, Key: 41, Start: 5, End: 50},
		{Kind: kRPCCall, Actor: 0, Node: 1, Start: 6, End: 49},
		{Kind: kSrvAppend, Actor: -1, Node: 1, Key: 41, Start: 10, End: 40},
		{Kind: kStoreAppend, Actor: -1, Node: 1, Key: 41, Start: 15, End: 30},
		{Kind: kMemberInvalidate, Actor: 0, Node: 2, Key: 45, Start: 52, End: 60},
		{Kind: kMemberReplica, Actor: 0, Node: 2, Req: req, Key: 41, Start: 61, End: 95},
		// Another actor's call on the same maintainer at the same time must
		// not adopt actor 0's rpc call.
		{Kind: kMemberAppend, Actor: 1, Node: 1, Req: reqID(1, 1), Key: 99, Start: 4, End: 51},
	}
	for i := range spans {
		spans[i].ID = int32(i + 1)
	}
	resolve(spans)
	wantParent := []int32{0, 1, 2, 3, 4, 1, 1, 0}
	for i, w := range wantParent {
		if spans[i].Parent != w {
			t.Errorf("%s (id %d): parent %d, want %d", spans[i].Kind, spans[i].ID, spans[i].Parent, w)
		}
	}
}

func TestBodyStamp(t *testing.T) {
	fill := filler(3, 128)
	want := stamp{actor: 2, seq: 99, idx: 3, intended: 12345}
	b := newBody(want, fill)
	got, ok := readStamp(b)
	if !ok || got != want {
		t.Fatalf("readStamp = %+v, %v; want %+v", got, ok, want)
	}
	b[77] ^= 1
	if _, ok := readStamp(b); ok {
		t.Fatal("a flipped bit passed the checksum")
	}
}

func TestWindowQuantiles(t *testing.T) {
	var s []sample
	for w := 0; w < 10; w++ {
		for i := 0; i < 9; i++ {
			lat := time.Millisecond
			if w == 4 {
				lat = 50 * time.Millisecond // one disturbed window
			}
			s = append(s, sample{time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat})
		}
	}
	if got := median(windowQuantiles(s, 10*time.Second, 0.5)); got != 1 {
		t.Fatalf("median of window medians = %v ms, want 1", got)
	}
}

// TestSplit checks that an open loop cut at d keeps every operation once,
// on the side it was due on, with the later side's clock restarted.
func TestSplit(t *testing.T) {
	o := openLoop{phase: 10 * time.Second, gap: time.Millisecond}
	for i := 0; i < 10; i++ {
		s := sample{time.Duration(i) * time.Second, time.Duration(i+1) * time.Millisecond}
		o.samples = append(o.samples, s)
		o.startDelay = append(o.startDelay, s)
	}
	before, after := o.split(7 * time.Second)
	if len(before.samples) != 7 || len(after.samples) != 3 || len(before.startDelay) != 7 || len(after.startDelay) != 3 {
		t.Fatalf("split 7/3 gave %d/%d samples, %d/%d start delays",
			len(before.samples), len(after.samples), len(before.startDelay), len(after.startDelay))
	}
	if before.phase != 7*time.Second || after.phase != 3*time.Second {
		t.Fatalf("phases %s and %s", before.phase, after.phase)
	}
	if first := after.samples[0]; first.at != 0 || first.lat != 8*time.Millisecond {
		t.Fatalf("first operation after the cut is %+v", first)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	wa, _ := json.Marshal(a)
	wb, _ := json.Marshal(b)
	if string(wa) != string(wb) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with: go run . -benchmark-json > ../BENCHMARK.json")
	}
}

// TestSmoke runs every workload for a second per phase, untraced and
// traced, with the output checks on, and requires every metric the mode
// owes, by name, finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	trace.SetSampling(0)
	trace.SetSlowOpThreshold(0)
	defer func(n int) { setupRepeats = n }(setupRepeats)
	setupRepeats = 1
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			rc := &runCtx{
				workload: w.Name, seed: 5, traced: traced, paced: time.Second, bulk: time.Second,
				workDir: t.TempDir(), metrics: map[string]value{}, diag: map[string]value{},
			}
			specs := endToEnd
			if traced {
				rc.rec = newRecorder()
				specs = perLayer
			}
			if err := w.run(rc); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			got := finalMetrics(rc)
			for _, v := range rc.violations {
				// One-second phases are too short for the backlog and
				// attribution checks to mean anything; everything else
				// counts.
				if strings.HasPrefix(v, "backlog grew") || strings.HasPrefix(v, "layer sum") {
					t.Logf("%s traced=%v: %s", w.Name, traced, v)
					continue
				}
				t.Errorf("%s traced=%v: %s", w.Name, traced, v)
			}
			for _, sp := range specs {
				v, ok := got[sp.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite", w.Name, traced, sp.Name)
				}
			}
			if len(got) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(got), len(specs))
			}
		}
	}
}
