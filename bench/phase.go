package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// timeSetups sets the deployment up setupRepeats times, tearing all but the
// last down again, and reports the median time. The first set-up in a
// process also pays for page faults and lazy initialisation that the later
// ones do not, which is why one timing would not do.
func timeSetups[T any](rc *runCtx, setup func(dir string) (T, error), teardown func(T)) (T, error) {
	var times []float64
	var kept T
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(rc.workDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return kept, err
		}
		start := time.Now()
		d, err := setup(dir)
		if err != nil {
			return kept, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			teardown(d)
			removeAll(dir)
			runtime.GC()
			continue
		}
		kept = d
	}
	rc.e2e("setup_s", "s", median(times), len(times))
	return kept, nil
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// pacedPhase runs an open-loop phase and reports the process counters over
// it. In a traced run the recorder stays off for the first third of the
// phase and is switched on for the rest: the first third gives the process
// counters and the latency without recording, the rest gives the spans, and
// the ratio of the two medians is what recording costs. Thirds are of the
// run's paced phase, which is all of d except where the open loop carries on
// into the bulk phase (read_mixed); the counters and the comparison stop
// where the paced phase does.
func (rc *runCtx) pacedPhase(sessions int, rate float64, d time.Duration, op func(session int, intended time.Time) error) openLoop {
	counted := rc.paced
	if rc.traced {
		counted = rc.paced / 3
	}
	from := readProc()
	probed := make(chan procProbe, 1)
	t := time.AfterFunc(counted, func() {
		to := readProc()
		if rc.traced {
			if rc.atTraceOn != nil {
				rc.atTraceOn()
			}
			rc.rec.on.Store(true)
		}
		probed <- to
	})
	o := runOpenLoop(sessions, rate, d, rc.seed, op)
	var to procProbe
	if t.Stop() {
		to = readProc() // the phase ended before the timer fired
	} else {
		to = <-probed
	}
	var off, on []sample
	for _, s := range o.samples {
		switch {
		case s.at < counted:
			off = append(off, s)
		case s.at < rc.paced:
			on = append(on, sample{s.at - counted, s.lat})
		}
	}
	rc.reportProc(from, to, len(off))
	if !rc.traced {
		return o
	}
	p50off := median(windowQuantiles(off, counted, 0.5))
	p50on := median(windowQuantiles(on, rc.paced-counted, 0.5))
	rc.layer("trace.overhead_ratio", "ratio", p50on/p50off, len(on))
	rc.note("trace.append_p50_off_ms", "ms", p50off, len(off))
	rc.note("trace.append_p50_on_ms", "ms", p50on, len(on))
	return o
}
