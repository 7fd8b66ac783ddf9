package flstore

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Trace plumbing shared by the maintainer serving paths and the RPC
// adapters. A batch shares its pipeline cost (one assignment, one store
// write, one fan-out), so one context — the first sampled record's —
// stands for the whole batch; finding it is one flag test per record and
// no allocation, which keeps the untraced hot path inside its alloc
// budget.

// batchTrace returns the first sampled record's trace context, or the
// zero Ctx for an untraced batch.
func batchTrace(recs []*core.Record) trace.Ctx {
	for _, r := range recs {
		if r.Trace.Sampled() {
			return r.Trace
		}
	}
	return trace.Ctx{}
}

// stampRecords restamps decoded records with the envelope's trace
// context so in-process stages downstream of a wire hop see the caller's
// trace (the codec does not serialize Record.Trace). No-op for untraced
// requests, and for replies, which are decoded with no context.
func stampRecords(recs []*core.Record, tc *trace.Ctx) {
	if tc == nil || !tc.Sampled() {
		return
	}
	for _, r := range recs {
		r.Trace = *tc
	}
}

// appendOutcome classifies an append error for span annotation:
// retryable admission rejections are "overload", everything else
// "error".
func appendOutcome(err error) string {
	switch {
	case err == nil:
		return ""
	case IsRetryable(err):
		return "overload"
	default:
		return "error"
	}
}
