package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runAA runs sets sets of every workload back to back, each run in a fresh
// process of this binary, and compares the sets: the same commit against
// itself. It prints, per workload and end-to-end metric, the median, the
// quartile spread and the widest distance between two sets, and reports
// whether every distance stayed within the metric's bound.
func runAA(sets int, seed uint64, seconds int) bool {
	self, err := os.Executable()
	if err != nil {
		fatal("bench: %v", err)
	}
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	ok := true
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+uint64(set)), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct bool             `json:"correct"`
				Metrics map[string]value `json:"metrics"`
			}
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				fmt.Printf("set %d %s: no result: %v %v\n", set, w.Name, err, jerr)
				ok = false
				continue
			}
			if err != nil || !res.Correct {
				fmt.Printf("set %d %s: run incorrect (%v)\n%s\n", set, w.Name, err, out)
				ok = false
			}
			for name, v := range res.Metrics {
				vals[key{w.Name, name}] = append(vals[key{w.Name, name}], v.Value)
			}
			fmt.Printf("set %d %-13s done\n", set, w.Name)
		}
	}
	fmt.Printf("\n%-13s %-18s %12s %9s %9s %7s\n", "workload", "metric", "median", "iqr/med", "max-min", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := sortedCopy(vals[key{w.Name, m.Name}])
			if len(v) < 2 {
				continue
			}
			med := quantile(v, 0.5)
			iqr := (quantile(v, 0.75) - quantile(v, 0.25)) / med
			dist := (v[len(v)-1] - v[0]) / med
			flag := ""
			if dist > m.Bound {
				flag = "  OUTSIDE BOUND"
				ok = false
			}
			fmt.Printf("%-13s %-18s %12.4f %8.1f%% %8.1f%% %6.0f%%%s\n", w.Name, m.Name, med, iqr*100, dist*100, m.Bound*100, flag)
		}
	}
	return ok
}
