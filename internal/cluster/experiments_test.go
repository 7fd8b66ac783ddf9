package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestExperimentTable pins the table's shape: exactly the experiment names
// `repro -exp` has always accepted, each once and in run order; a kind on
// every entry; and a schema-golden payload behind every artifact.
func TestExperimentTable(t *testing.T) {
	want := []string{
		"fig7", "fig8", "table2", "table3", "table4", "table5", "fig9",
		"ablation-sequencer", "ablation-batchsize", "ablation-gossip",
		"ablation-tokencarry", "ablation-flush", "geo-visibility", "hyksos",
		"failover", "readpath", "overload", "tracelat", "scale", "durability",
		"elastic",
	}
	var got []string
	for _, e := range Experiments {
		got = append(got, e.Name)
		if e.Kind != Modelled && e.Kind != Measured {
			t.Errorf("%s: kind %q is neither modelled nor measured", e.Name, e.Kind)
		}
		if e.Title == "" || e.Claim == "" || e.run == nil {
			t.Errorf("%s: title, claim and run must all be set", e.Name)
		}
		if e.Artifact != "" {
			if _, ok := benchGolden[e.Artifact]; !ok {
				t.Errorf("%s: artifact %q has no payload in TestBenchSchemaGolden", e.Name, e.Artifact)
			}
		}
		if found, ok := LookupExperiment(e.Name); !ok || found.Title != e.Title {
			t.Errorf("LookupExperiment(%q) = %q, %v", e.Name, found.Title, ok)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("experiment names:\n got  %v\n want %v", got, want)
	}
	if _, ok := LookupExperiment("nope"); ok {
		t.Error("LookupExperiment found an experiment that is not in the table")
	}
}

func TestBarErr(t *testing.T) {
	for _, c := range []struct {
		bar Bar
		ok  bool
	}{
		{Bar{"a", 5, ">=", 5}, true},
		{Bar{"b", 4.9, ">=", 5}, false},
		{Bar{"c", 0.5, "<=", 0.5}, true},
		{Bar{"d", 0.51, "<=", 0.5}, false},
		{Bar{"e", 1, "==", 1}, false}, // unknown relation never passes
	} {
		if err := c.bar.Err(); (err == nil) != c.ok {
			t.Errorf("%+v: Err() = %v, want pass=%v", c.bar, err, c.ok)
		}
	}
}

// TestGossipAblationSmoke runs the §5.4 ablation at two intervals: the
// gossiped head must trail further at the longer interval while append
// throughput stays put. It is also what puts the ablation's lag sampler
// under `make race`.
func TestGossipAblationSmoke(t *testing.T) {
	checkShape(t, "gossip ablation", func() error {
		fastLag, fastThr, err := headLag(time.Millisecond, testDur)
		if err != nil {
			return err
		}
		slowLag, slowThr, err := headLag(40*time.Millisecond, testDur)
		if err != nil {
			return err
		}
		if slowLag <= fastLag {
			return fmt.Errorf("head lag %d records at 40ms gossip, %d at 1ms: want it to grow with the interval", slowLag, fastLag)
		}
		if ratio := slowThr / fastThr; ratio < 0.8 || ratio > 1.25 {
			return fmt.Errorf("throughput %.0f/s at 40ms gossip vs %.0f/s at 1ms: gossip must not gate appends", slowThr, fastThr)
		}
		return nil
	})
}

// TestMeasuredRows runs every measured row but scale (whose smoke is `make
// bench-scale`) at testDur, exactly as repro runs it at -dur: each row
// fails on the invariants its run must hold. Bars are stated for repro's
// full window and are checked here only for tracelat, whose bars — span
// coverage and the stage sets — hold at any size (`make trace-smoke`).
func TestMeasuredRows(t *testing.T) {
	for _, e := range Experiments {
		if e.Kind != Measured || e.Name == "scale" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			rep, err := e.Run(testDur)
			if err != nil {
				t.Fatalf("%v\n%s", err, rep.Text())
			}
			if e.Name != "tracelat" {
				return
			}
			for _, b := range rep.Bars {
				if err := b.Err(); err != nil {
					t.Errorf("%v\n%s", err, rep.Text())
				}
			}
		})
	}
}
