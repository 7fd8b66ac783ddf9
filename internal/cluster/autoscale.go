package cluster

// Autoscaler closes the elasticity loop: it watches the deployment's
// metrics registry — the same series operators scrape — and, when
// saturation signals persist, fires the grow hooks (an epoch switchover
// through the flstore Orchestrator for the log tier, queue/filter stage
// additions for the Chariots pipeline). Detection is deliberately plain:
// a signal must breach its threshold for K consecutive ticks before a
// hook fires, and each hook is one-shot per breach episode (latched until
// the signal clears), so a slow switchover is never re-triggered by the
// pressure it is busy relieving.

import (
	"context"
	"time"

	"repro/internal/metrics"
)

// AutoscaleSignals are the saturation measurements of one tick, derived
// from a registry snapshot.
type AutoscaleSignals struct {
	// BacklogRatio is the worst maintainer's ingress backlog as a
	// fraction of its admission budget (flstore_admission_backlog_records
	// over flstore_admission_backlog_budget_records).
	BacklogRatio float64 `json:"backlog_ratio"`
	// AppendP99 is the worst maintainer's p99 append service time.
	AppendP99 time.Duration `json:"append_p99_ns"`
	// CreditRatio is the worst pipeline credit high-water mark as a
	// fraction of its capacity (chariots_credit_high_water_records over
	// chariots_credit_capacity_records).
	CreditRatio float64 `json:"credit_ratio"`
	// DurableLag is the spread between the head of the log and the lowest
	// positive durable watermark, in records (0 when no watermark is
	// exported — unreplicated or pre-durability deployments).
	DurableLag float64 `json:"durable_lag"`
	// RejectsDelta is how many appends the log tier turned away since the
	// previous tick (flstore_rejected_total, summed), 0 on the first tick.
	// Sustained rejects are the crispest grow signal: the deployment is
	// refusing offered load its capacity model cannot admit.
	RejectsDelta float64 `json:"rejects_delta"`
}

// AutoscaleDecision is the outcome of one Observe tick.
type AutoscaleDecision struct {
	Signals AutoscaleSignals `json:"signals"`
	// LogPressure/PipePressure report whether the tick breached the log
	// tier's / pipeline's thresholds.
	LogPressure  bool `json:"log_pressure"`
	PipePressure bool `json:"pipe_pressure"`
	// GrewLog/GrewPipeline report that this tick fired the hook.
	GrewLog      bool `json:"grew_log"`
	GrewPipeline bool `json:"grew_pipeline"`
	// Err carries a hook failure (the hook re-arms so a later tick can
	// retry).
	Err string `json:"err,omitempty"`
}

// Pressure thresholds: a tick breaches when any signal of its tier
// reaches its threshold.
const (
	backlogRatioHigh = 0.5                   // log tier: backlog/budget
	appendP99High    = 10 * time.Millisecond // log tier: append p99
	durableLagHigh   = 50000                 // log tier: head − durable watermark, records
	rejectsHigh      = 1                     // log tier: rejected appends per tick
	creditRatioHigh  = 0.8                   // pipeline: high-water/capacity
)

// AutoscaleConfig wires an Autoscaler.
type AutoscaleConfig struct {
	// Snapshot samples the deployment's registry (required for Run;
	// Observe can be driven with explicit snapshots instead).
	Snapshot func() metrics.Snapshot

	// Ticks is how many consecutive breaching ticks arm a hook.
	Ticks int

	// GrowLog and GrowPipeline are the one-shot-per-episode grow hooks;
	// nil disables the corresponding dimension.
	GrowLog      func() error
	GrowPipeline func() error
}

// Autoscaler is a deterministic stepper (Observe) with an optional
// wall-clock loop (Run) on top.
type Autoscaler struct {
	cfg        AutoscaleConfig
	logStreak  int
	pipeStreak int
	logLatch   bool // hook fired; re-arms when pressure clears
	pipeLatch  bool
	// rejects is the previous tick's flstore_rejected_total sum; seeded
	// on the first tick so a warm registry doesn't read as pressure.
	rejects       float64
	rejectsSeeded bool
}

// NewAutoscaler returns an autoscaler over cfg.
func NewAutoscaler(cfg AutoscaleConfig) *Autoscaler { return &Autoscaler{cfg: cfg} }

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

// SignalsFrom derives the saturation signals from a registry snapshot.
func SignalsFrom(sn metrics.Snapshot) AutoscaleSignals {
	var sig AutoscaleSignals
	sig.BacklogRatio = maxRatio(sn, "flstore_admission_backlog_records", "flstore_admission_backlog_budget_records")
	sig.CreditRatio = maxRatio(sn, "chariots_credit_high_water_records", "chariots_credit_capacity_records")
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
	sig.AppendP99 = time.Duration(p99 * float64(time.Second))
	if lowDur >= 0 && head > lowDur {
		sig.DurableLag = head - lowDur
	}
	return sig
}

// Observe runs one tick against the given snapshot and returns the
// decision. Exported as the deterministic test surface; Run drives it on
// a ticker.
func (a *Autoscaler) Observe(sn metrics.Snapshot) AutoscaleDecision {
	dec := AutoscaleDecision{Signals: SignalsFrom(sn)}
	var rejects float64
	for i := range sn.Series {
		if sn.Series[i].Name == "flstore_rejected_total" {
			rejects += sn.Series[i].Value
		}
	}
	if a.rejectsSeeded {
		dec.Signals.RejectsDelta = rejects - a.rejects
	}
	a.rejects, a.rejectsSeeded = rejects, true
	sig := dec.Signals

	dec.LogPressure = sig.BacklogRatio >= backlogRatioHigh ||
		sig.AppendP99 >= appendP99High ||
		sig.DurableLag >= durableLagHigh ||
		sig.RejectsDelta >= rejectsHigh
	dec.PipePressure = sig.CreditRatio >= creditRatioHigh

	if dec.LogPressure {
		a.logStreak++
	} else {
		a.logStreak = 0
		a.logLatch = false
	}
	if dec.PipePressure {
		a.pipeStreak++
	} else {
		a.pipeStreak = 0
		a.pipeLatch = false
	}

	if a.cfg.GrowLog != nil && !a.logLatch && a.logStreak >= a.cfg.Ticks {
		a.logLatch = true
		if err := a.cfg.GrowLog(); err != nil {
			dec.Err = err.Error()
			a.logLatch = false // re-arm: the grow didn't happen
		} else {
			dec.GrewLog = true
		}
	}
	if a.cfg.GrowPipeline != nil && !a.pipeLatch && a.pipeStreak >= a.cfg.Ticks {
		a.pipeLatch = true
		if err := a.cfg.GrowPipeline(); err != nil {
			if dec.Err == "" {
				dec.Err = err.Error()
			}
			a.pipeLatch = false
		} else {
			dec.GrewPipeline = true
		}
	}
	return dec
}

// Run ticks the autoscaler every interval until ctx is done, invoking
// onDecision after each tick.
func (a *Autoscaler) Run(ctx context.Context, interval time.Duration, onDecision func(AutoscaleDecision)) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			onDecision(a.Observe(a.cfg.Snapshot()))
		}
	}
}
