package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// FailoverOptions configures the replicated-FLStore failure experiment: a
// three-phase run (healthy → one maintainer severed → restarted and caught
// up) over three maintainers with R=3 that measures what the client sees
// through the failure. The fault is a scripted sever/heal of one link, so
// a run is reproducible by its phase size.
type FailoverOptions struct {
	Ack             replica.AckPolicy
	AppendsPerPhase int
}

// FailoverResult is one failure-experiment run.
type FailoverResult struct {
	// Appends and FailedAppends count client appends per phase
	// (healthy, killed, rejoined).
	Appends       [3]int
	FailedAppends [3]int
	// Evicted reports whether the session evicted the killed maintainer.
	Evicted bool
	// CatchUpRecords is how many records the restarted maintainer pulled.
	CatchUpRecords int
	// HeadAfterKill and HeadFinal are the exact head of the log at the end
	// of phases two and three — the paper's HL must keep advancing through
	// the failure.
	HeadAfterKill, HeadFinal uint64
	// ReadsChecked / ReadFailures cover every position up to HeadFinal read
	// back through the client (failover path included).
	ReadsChecked, ReadFailures int
	// AppendP99 is the client-observed p99 append latency over all phases.
	AppendP99 time.Duration
}

// RunFailover executes one kill/restart scenario against an in-process
// replicated deployment wired over RPC with every link behind the fault
// controller.
func RunFailover(opts FailoverOptions) (FailoverResult, error) {
	var res FailoverResult
	if opts.AppendsPerPhase <= 0 {
		return res, fmt.Errorf("cluster: failover needs AppendsPerPhase > 0")
	}
	const kill = 1 // the maintainer severed in phase two
	link := func(i int) string { return fmt.Sprintf("c->m%d", i) }
	ctl := faultinject.New(faultinject.Options{Seed: 1})
	rig, err := NewRig(RigSpec{
		Maintainers: 3, Replication: 3, Round: 8, Ack: opts.Ack,
		Link: func(i int, c rpc.Client) rpc.Client { return ctl.Wrap(link(i), c) },
	})
	if err != nil {
		return res, err
	}
	defer rig.Close()
	client := rig.Client

	var latencies []time.Duration
	phase := func(idx int) {
		for i := 0; i < opts.AppendsPerPhase; i++ {
			start := time.Now()
			_, err := client.Append([]byte(fmt.Sprintf("p%d-%d", idx, i)), nil)
			latencies = append(latencies, time.Since(start))
			res.Appends[idx]++
			if err != nil {
				res.FailedAppends[idx]++
			}
		}
	}

	phase(0)
	ctl.Sever(link(kill))
	phase(1)
	res.Evicted = client.Session().Health().State(kill) == replica.Evicted
	if res.HeadAfterKill, err = client.HeadExact(); err != nil {
		return res, fmt.Errorf("cluster: head after kill: %w", err)
	}

	// Restart: heal the link and run the rejoin sequence (catch-up, then
	// readmission). The maintainer's in-memory state survived — only its
	// link was cut — so catch-up transfers exactly the missed records.
	ctl.Heal(link(kill))
	if res.CatchUpRecords, err = client.Session().Rejoin(kill, 0); err != nil {
		return res, fmt.Errorf("cluster: rejoin: %w", err)
	}
	phase(2)
	if res.HeadFinal, err = client.HeadExact(); err != nil {
		return res, fmt.Errorf("cluster: final head: %w", err)
	}

	for lid := uint64(1); lid <= res.HeadFinal; lid++ {
		res.ReadsChecked++
		if _, err := client.ReadLId(lid); err != nil {
			res.ReadFailures++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.AppendP99 = latencies[(len(latencies)*99)/100]
	return res, nil
}
