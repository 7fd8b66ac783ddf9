package cluster

// The autoscaler closes the elasticity loop: it watches the deployment's
// metrics registry — the same series operators scrape — and, when the log
// tier's saturation signals persist, fires the grow hook (an epoch
// switchover through the flstore Orchestrator). Detection is deliberately
// plain: a signal must breach its threshold for K consecutive ticks before
// the hook fires, and the hook is one-shot per breach episode (latched
// until the signal clears), so a slow switchover is never re-triggered by
// the pressure it is busy relieving.

import (
	"context"
	"time"

	"repro/internal/metrics"
)

// autoscaleSignals are the saturation measurements of one tick, derived
// from a registry snapshot.
type autoscaleSignals struct {
	// backlogRatio is the worst maintainer's ingress backlog as a fraction
	// of its admission budget (flstore_admission_backlog_records over
	// flstore_admission_backlog_budget_records).
	backlogRatio float64
	// appendP99 is the worst maintainer's p99 append service time.
	appendP99 time.Duration
	// durableLag is the spread between the head of the log and the lowest
	// positive durable watermark, in records (0 when no watermark is
	// exported — unreplicated or pre-durability deployments).
	durableLag float64
	// rejectsDelta is how many appends the log tier turned away since the
	// previous tick (flstore_rejected_total, summed), 0 on the first tick.
	// Sustained rejects are the crispest grow signal: the deployment is
	// refusing offered load its capacity model cannot admit.
	rejectsDelta float64
}

// autoscaleDecision is the outcome of one observe tick.
type autoscaleDecision struct {
	// pressure reports whether the tick breached a threshold; grew that
	// this tick fired the hook.
	pressure, grew bool
	// err carries a hook failure (the hook re-arms so a later tick can
	// retry).
	err error
}

// Pressure thresholds: a tick breaches when any signal reaches its
// threshold.
const (
	backlogRatioHigh = 0.5                   // backlog/budget
	appendP99High    = 10 * time.Millisecond // append p99
	durableLagHigh   = 50000                 // head − durable watermark, records
	rejectsHigh      = 1                     // rejected appends per tick
)

// autoscaler is a deterministic stepper (observe) with a wall-clock loop
// (run) on top.
type autoscaler struct {
	// snapshot samples the deployment's registry (required for run; observe
	// can be driven with explicit snapshots instead).
	snapshot func() metrics.Snapshot
	// ticks is how many consecutive breaching ticks arm the hook.
	ticks int
	// grow is the one-shot-per-episode grow hook.
	grow func() error

	streak int
	latch  bool // hook fired; re-arms when pressure clears
	// rejects is the previous tick's flstore_rejected_total sum; seeded
	// on the first tick so a warm registry doesn't read as pressure.
	rejects       float64
	rejectsSeeded bool
}

// maxRatio returns the largest num/den over series of the num family,
// pairing each with the den series carrying identical labels.
func maxRatio(sn metrics.Snapshot, num, den string) float64 {
	best := 0.0
	for i := range sn.Series {
		s := &sn.Series[i]
		if s.Name != num {
			continue
		}
		d := sn.Find(den, s.Labels)
		if d == nil || d.Value <= 0 {
			continue
		}
		if r := s.Value / d.Value; r > best {
			best = r
		}
	}
	return best
}

// signalsFrom derives the saturation signals from a registry snapshot.
func signalsFrom(sn metrics.Snapshot) autoscaleSignals {
	var sig autoscaleSignals
	sig.backlogRatio = maxRatio(sn, "flstore_admission_backlog_records", "flstore_admission_backlog_budget_records")
	var p99 float64
	var head float64
	lowDur := -1.0
	for i := range sn.Series {
		s := &sn.Series[i]
		switch s.Name {
		case "flstore_append_seconds":
			if q := s.Quantile(0.99); q > p99 {
				p99 = q
			}
		case "flstore_head_lid":
			if s.Value > head {
				head = s.Value
			}
		case "replica_durable_watermark":
			// A zero watermark means the durability tier hasn't reported
			// yet; counting it would read as a full-head lag.
			if s.Value > 0 && (lowDur < 0 || s.Value < lowDur) {
				lowDur = s.Value
			}
		}
	}
	sig.appendP99 = time.Duration(p99 * float64(time.Second))
	if lowDur >= 0 && head > lowDur {
		sig.durableLag = head - lowDur
	}
	return sig
}

// observe runs one tick against the given snapshot and returns the
// decision: the deterministic test surface; run drives it on a ticker.
func (a *autoscaler) observe(sn metrics.Snapshot) autoscaleDecision {
	sig := signalsFrom(sn)
	var rejects float64
	for i := range sn.Series {
		if sn.Series[i].Name == "flstore_rejected_total" {
			rejects += sn.Series[i].Value
		}
	}
	if a.rejectsSeeded {
		sig.rejectsDelta = rejects - a.rejects
	}
	a.rejects, a.rejectsSeeded = rejects, true

	var dec autoscaleDecision
	dec.pressure = sig.backlogRatio >= backlogRatioHigh ||
		sig.appendP99 >= appendP99High ||
		sig.durableLag >= durableLagHigh ||
		sig.rejectsDelta >= rejectsHigh
	if !dec.pressure {
		a.streak = 0
		a.latch = false
		return dec
	}
	a.streak++
	if !a.latch && a.streak >= a.ticks {
		a.latch = true
		if err := a.grow(); err != nil {
			dec.err = err
			a.latch = false // re-arm: the grow didn't happen
		} else {
			dec.grew = true
		}
	}
	return dec
}

// run ticks the autoscaler every interval until ctx is done, invoking
// onDecision after each tick.
func (a *autoscaler) run(ctx context.Context, interval time.Duration, onDecision func(autoscaleDecision)) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			onDecision(a.observe(a.snapshot()))
		}
	}
}
