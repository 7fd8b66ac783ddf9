package main

import "time"

// e2e records an end-to-end metric. In a traced run the value is kept as a
// diagnostic only: end-to-end numbers come from the run with tracing off.
func (rc *runCtx) e2e(name, unit string, v float64, n int) {
	if rc.traced {
		rc.diag[name] = value{v, unit, n}
		return
	}
	rc.metrics[name] = value{v, unit, n}
}

// layer records a per-layer metric: reported by the traced run, shown as a
// diagnostic by the untraced one where it can be had without spans.
func (rc *runCtx) layer(name, unit string, v float64, n int) {
	if rc.traced {
		rc.metrics[name] = value{v, unit, n}
		return
	}
	rc.diag[name] = value{v, unit, n}
}

func (rc *runCtx) note(name, unit string, v float64, n int) {
	rc.diag[name] = value{v, unit, n}
}

// reportPaced turns an open-loop phase into the append metrics, the
// generator's own ledger, and the violations the ledger can show.
func (rc *runCtx) reportPaced(o *openLoop) {
	rc.attempted += o.ledger.Offered
	rc.failed += o.ledger.Offered - o.ledger.Completed
	if l := o.ledger; l.Offered != l.Completed+l.ShedServer+l.ShedClient+l.Errors {
		rc.violate("generator ledger does not balance: %+v", l)
	}
	rc.e2e("append_p50_ms", "ms", median(windowQuantiles(o.samples, o.phase, 0.5)), len(o.samples))
	rc.e2e("append_p90_ms", "ms", median(windowQuantiles(o.samples, o.phase, 0.9)), len(o.samples))
	all := latenciesMs(o.samples)
	rc.layer("client.append_p99_ms", "ms", quantile(all, 0.99), len(all))
	rc.layer("client.append_p999_ms", "ms", quantile(all, 0.999), len(all))
	rc.layer("scale.gen_lag_p99_ms", "ms", o.genLagP99Ms(), len(o.idleLag))
	rc.layer("client.service_p50_ms", "ms", quantile(sortedMs(o.service), 0.5), len(o.service))
	rc.layer("scale.offered", "count", float64(o.ledger.Offered), 1)
	rc.layer("scale.completed", "count", float64(o.ledger.Completed), 1)
	// A backlog that grows leaves the last third both well behind the first
	// and more than one arrival behind its schedule. The ratio alone is not
	// enough: on a deployment that keeps up both medians are a fraction of a
	// millisecond, the generator's own timer wake-up, and their ratio wanders.
	g, behind := o.backlogGrowth()
	rc.layer("scale.backlog_growth", "ratio", g, len(o.startDelay))
	if g > 2 && behind > o.gap {
		rc.violate("backlog grew over the paced phase: start delay ratio %.2f, last third %s behind at one arrival every %s", g, behind, o.gap)
	}
}

func (rc *runCtx) reportBulk(c *closedLoop) {
	rc.attempted += uint64(len(c.samples)) + c.failed
	rc.failed += c.failed
	rps, n := c.recsPerSec()
	rc.layer("client.bulk_recs_s", "records/s", rps, n)
	rc.layer("client.bulk_op_p50_ms", "ms", median(windowQuantiles(c.samples, c.phase, 0.5)), len(c.samples))
}

func (rc *runCtx) reportDelivery(t *tailer, phase time.Duration) {
	rc.attempted += uint64(len(t.samples))
	rc.e2e("delivery_p50_ms", "ms", median(windowQuantiles(t.samples, phase, 0.5)), len(t.samples))
	rc.e2e("delivery_p90_ms", "ms", median(windowQuantiles(t.samples, phase, 0.9)), len(t.samples))
}
