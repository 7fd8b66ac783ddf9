package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// failover is the replicated-FLStore failure experiment under both ack
// policies: a three-phase run (healthy → one maintainer severed →
// restarted and caught up) over three maintainers with R=3, one append
// per 2 ms of d (at least 100) per phase, measuring what the client sees
// through the failure. The fault is a scripted sever/heal of one link, so
// a run is reproducible by its phase size.
func failover(d time.Duration, rep *Report) error {
	tb := &metrics.Table{Header: []string{"ack", "appends ok", "appends failed", "evicted", "catch-up recs", "head growth", "read failures", "append p99"}}
	var err error
	for _, ack := range []replica.AckPolicy{replica.AckOne, replica.AckMajority} {
		if err = killAndRejoin(ack, max(100, int(d/(2*time.Millisecond))), tb, rep); err != nil {
			break
		}
	}
	rep.Printf("%s", tb)
	return err
}

// killAndRejoin runs one kill/restart scenario against an in-process
// replicated deployment wired over RPC with every link behind the fault
// controller, adds its row to tb and its metrics to rep, and fails unless
// every append succeeded, the killed maintainer was evicted and caught up
// on restart, the head kept advancing, and every position reads back.
func killAndRejoin(ack replica.AckPolicy, perPhase int, tb *metrics.Table, rep *Report) error {
	const kill = 1 // the maintainer severed in phase two
	link := func(i int) string { return fmt.Sprintf("c->m%d", i) }
	ctl := faultinject.New(faultinject.Options{Seed: 1})
	rig, err := NewRig(RigSpec{
		Maintainers: 3, Replication: 3, Round: 8, Ack: ack,
		Link: func(i int, c rpc.Client) rpc.Client { return ctl.Wrap(link(i), c) },
	})
	if err != nil {
		return err
	}
	defer rig.Close()
	client := rig.Client

	var latencies []time.Duration
	failed := 0
	phase := func(idx int) {
		for i := 0; i < perPhase; i++ {
			start := time.Now()
			_, err := client.Append([]byte(fmt.Sprintf("p%d-%d", idx, i)), nil)
			latencies = append(latencies, time.Since(start))
			if err != nil {
				failed++
			}
		}
	}

	phase(0)
	ctl.Sever(link(kill))
	phase(1)
	evicted := client.Session().Health().State(kill) == replica.Evicted
	headAfterKill, err := client.HeadExact()
	if err != nil {
		return fmt.Errorf("cluster: head after kill: %w", err)
	}

	// Restart: heal the link and run the rejoin sequence (catch-up, then
	// readmission). The maintainer's in-memory state survived — only its
	// link was cut — so catch-up transfers exactly the missed records.
	ctl.Heal(link(kill))
	caughtUp, err := client.Session().Rejoin(kill, 0)
	if err != nil {
		return fmt.Errorf("cluster: rejoin: %w", err)
	}
	phase(2)
	headFinal, err := client.HeadExact()
	if err != nil {
		return fmt.Errorf("cluster: final head: %w", err)
	}

	readFailures := 0
	for lid := uint64(1); lid <= headFinal; lid++ {
		if _, err := client.ReadLId(lid); err != nil {
			readFailures++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[(len(latencies)*99)/100]
	tb.AddRow(ack.String(),
		fmt.Sprint(len(latencies)-failed),
		fmt.Sprint(failed),
		fmt.Sprint(evicted),
		fmt.Sprint(caughtUp),
		fmt.Sprintf("%d → %d", headAfterKill, headFinal),
		fmt.Sprintf("%d/%d", readFailures, headFinal),
		p99.Round(10*time.Microsecond).String())
	rep.Metric("failed-appends@ack="+ack.String(), float64(failed))
	rep.Metric("append-p99-us@ack="+ack.String(), float64(p99.Microseconds()))

	switch {
	case failed > 0:
		return fmt.Errorf("cluster: ack=%s: %d appends failed through the kill", ack, failed)
	case !evicted:
		return fmt.Errorf("cluster: ack=%s: the killed maintainer was never evicted", ack)
	case caughtUp == 0:
		return fmt.Errorf("cluster: ack=%s: the restart transferred no catch-up records", ack)
	case headAfterKill == 0 || headFinal <= headAfterKill:
		return fmt.Errorf("cluster: ack=%s: the head did not keep advancing: %d → %d", ack, headAfterKill, headFinal)
	case readFailures > 0:
		return fmt.Errorf("cluster: ack=%s: %d of %d reads failed", ack, readFailures, headFinal)
	}
	return nil
}
