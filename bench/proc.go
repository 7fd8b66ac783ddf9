package main

import (
	"runtime"
	"syscall"
	"time"
)

// procProbe reads the process's allocation, collection and CPU counters, to
// report the cost side of a phase per operation. The whole deployment runs
// in this process, so the figures cover clients, servers and the harness.
type procProbe struct {
	mallocs, bytes uint64
	pauseNs        uint64
	cpu            time.Duration
}

func readProc() procProbe {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procProbe{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, cpu}
}

// reportProc reports the counters' growth between two readings, per
// operation.
func (rc *runCtx) reportProc(from, to procProbe, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	rc.layer("proc.allocs_per_append", "count", float64(to.mallocs-from.mallocs)/n, ops)
	rc.layer("proc.alloc_bytes_per_append", "bytes", float64(to.bytes-from.bytes)/n, ops)
	rc.layer("proc.cpu_us_per_append", "us", us(to.cpu-from.cpu)/n, ops)
	rc.layer("proc.gc_pause_ms", "ms", float64(to.pauseNs-from.pauseNs)/1e6, ops)
}
