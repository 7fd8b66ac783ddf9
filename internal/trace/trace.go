// Package trace is the record-lifecycle distributed-tracing layer of
// Chariots: a 24-byte sampled trace context created at the client API
// edge (Client.AppendCtx / ReadRangeCtx / Datacenter.Append), carried
// through the RPC wire framing as an optional header and on the records
// themselves through the pipeline stages, with every hop recording a
// named span — stage, queue-wait vs. service time, outcome — into a
// per-process ring-buffer flight recorder instead of an external
// collector.
//
// Design constraints (DESIGN.md §5.4):
//
//   - The untraced hot path stays allocation-free: the sampling decision
//     is one branch on a context flag, and every instrumentation site is
//     guarded by `if tc.Sampled()`.
//   - Span recording is lock-cheap: the flight recorder is striped into
//     shards, each a fixed ring guarded by its own mutex; a recorded span
//     is one short critical section copying a small struct.
//   - No clocks beyond time.Now: span times are unix nanos, joined across
//     processes by trace id (clock skew shows up as overlap, which the
//     renderer tolerates).
package trace

import (
	"strconv"
	"sync/atomic"
	"time"
)

// TraceID identifies one record lifecycle end to end across processes.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id the way /debug/trace and logctl accept it.
func (t TraceID) String() string { return strconv.FormatUint(uint64(t), 16) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return TraceID(v), err
}

// Ctx flags.
const (
	// FlagSampled marks a context whose hops record spans.
	FlagSampled uint8 = 1 << 0
	// FlagForced marks a context sampled by the slow-op detector or an
	// operator override rather than the probabilistic sampler.
	FlagForced uint8 = 1 << 1
)

// Ctx is the trace context carried by a record (or an RPC envelope)
// through the pipeline. The zero value is "untraced" and every operation
// on it is a no-op, so unsampled traffic pays exactly one flag test per
// instrumentation site.
//
// T and S name the trace and the parent span for the next hop; At is the
// unix-nano timestamp of the previous hop's hand-off, which lets each
// stage attribute the gap since then as its queue wait without the
// channels carrying timestamps. Only T, S, and F cross the wire (the
// receiver restarts At at arrival, so transit time lands in the first
// server-side hop's queue component).
type Ctx struct {
	T  TraceID
	S  SpanID
	F  uint8
	At int64
}

// Sampled reports whether hops on this context should record spans.
func (c Ctx) Sampled() bool { return c.F&FlagSampled != 0 }

// --- id generation and sampling ---

// idState seeds the splitmix64 stream behind NewID; package init makes
// ids distinct across processes, the mix makes them distinct within one.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano()) | 1) }

// nextID returns a non-zero pseudo-random 64-bit id (splitmix64,
// lock-free, allocation-free).
func nextID() uint64 {
	for {
		z := idState.Add(0x9E3779B97F4A7C15)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// sampleEvery is the global sampling rate: 0 disables tracing entirely,
// N samples one in N new contexts. The counter-based decision keeps the
// cost of an unsampled New at one atomic add.
var (
	sampleEvery atomic.Uint32
	sampleCtr   atomic.Uint32
)

// SetSampling sets the process-wide sampling rate: one traced context
// per every `everyN` created; 0 disables, 1 traces everything.
func SetSampling(everyN uint32) { sampleEvery.Store(everyN) }

// SamplingRate returns the current 1-in-N sampling rate (0 = off).
func SamplingRate() uint32 { return sampleEvery.Load() }

// New makes the sampling decision for a fresh operation: it returns a
// sampled context (new trace id, no parent span, stamped now) one time
// in N per SetSampling, and the zero Ctx otherwise. The unsampled path
// is one atomic load, at most one atomic add, and no allocation or
// clock read.
func New() Ctx {
	n := sampleEvery.Load()
	if n == 0 {
		return Ctx{}
	}
	if n > 1 && sampleCtr.Add(1)%n != 0 {
		return Ctx{}
	}
	return Ctx{T: TraceID(nextID()), F: FlagSampled, At: time.Now().UnixNano()}
}

// Forced returns a sampled context with the forced flag — operator
// overrides (logctl, debug endpoints) and tests use it to trace a
// specific operation regardless of the sampling rate.
func Forced() Ctx {
	return Ctx{T: TraceID(nextID()), F: FlagSampled | FlagForced, At: time.Now().UnixNano()}
}

// --- span recording ---

// Span is one recorded hop of a trace: the stage name, the covered
// interval, how much of it was queue wait vs. service, and the outcome.
// Spans are fixed-size values so the flight recorder ring holds them
// without per-span allocation.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	// Stage names the hop ("client.append", "batcher.queue", "store.fsync",
	// "rpc.append", ...). Sites pass string constants so recording does
	// not allocate.
	Stage string `json:"stage"`
	// Node names the process (or simulated node) that recorded the span.
	Node string `json:"node,omitempty"`
	// Start is unix nanos; Dur the covered nanoseconds; Queue the part of
	// Dur attributed to waiting (channel, admission, park) rather than
	// service.
	Start int64 `json:"start"`
	Dur   int64 `json:"dur"`
	Queue int64 `json:"queue,omitempty"`
	// Outcome is "" for success, otherwise a short error class
	// ("overload", "drop", "error", ...).
	Outcome string `json:"outcome,omitempty"`
	// LId is the log position, once assigned (0 before assignment).
	LId uint64 `json:"lid,omitempty"`
	// Count is the number of records the span covered (batch spans).
	Count int32 `json:"count,omitempty"`
	// Forced marks slow-op force-sampled spans.
	Forced bool `json:"forced,omitempty"`
}

// End returns the span's end time in unix nanos.
func (s Span) End() int64 { return s.Start + s.Dur }

// Hop records one pipeline hop on a sampled context: a span covering the
// interval since the context's previous hand-off ([c.At, now)), with
// queueNs of it attributed to queue wait, then advances the context so
// the next hop parents to this span. No-op on unsampled contexts.
//
// Hop is the building block for stages that hand a record onward; paths
// that wrap a call (RPC client, store fsync) use Begin/End instead,
// which do not advance the chain.
func (c *Ctx) Hop(r *Recorder, stage string, queueNs int64, outcome string, lid uint64, count int) SpanID {
	if !c.Sampled() {
		return 0
	}
	now := time.Now().UnixNano()
	start := c.At
	if start == 0 || start > now {
		start = now
	}
	if queueNs < 0 {
		queueNs = 0
	}
	if queueNs > now-start {
		queueNs = now - start
	}
	id := SpanID(nextID())
	r.Record(Span{
		Trace:   c.T,
		ID:      id,
		Parent:  c.S,
		Stage:   stage,
		Start:   start,
		Dur:     now - start,
		Queue:   queueNs,
		Outcome: outcome,
		LId:     lid,
		Count:   int32(count),
		Forced:  c.F&FlagForced != 0,
	})
	c.S = id
	c.At = now
	return id
}

// Started is an in-flight service span opened by Begin. It is a value —
// keeping it on the stack keeps the traced path allocation-free.
type Started struct {
	c     Ctx
	stage string
	start int64
}

// Begin opens a service span under the context's current parent without
// advancing the hop chain (the caller's context continues to parent
// subsequent hops to the same span). Use for calls that wrap downstream
// work: RPC client calls, store writes, replica fan-out.
func Begin(c Ctx, stage string) Started {
	if !c.Sampled() {
		return Started{}
	}
	return Started{c: c, stage: stage, start: time.Now().UnixNano()}
}

// Active reports whether the span will record on End (i.e. the context
// it was opened under was sampled).
func (s Started) Active() bool { return s.stage != "" }

// End records the span. No-op when the opening context was unsampled.
func (s Started) End(r *Recorder, outcome string, lid uint64, count int) SpanID {
	if s.stage == "" {
		return 0
	}
	id := SpanID(nextID())
	r.Record(Span{
		Trace:   s.c.T,
		ID:      id,
		Parent:  s.c.S,
		Stage:   s.stage,
		Start:   s.start,
		Dur:     time.Now().UnixNano() - s.start,
		Outcome: outcome,
		LId:     lid,
		Count:   int32(count),
		Forced:  s.c.F&FlagForced != 0,
	})
	return id
}

// Outcome classifies an error for span annotation: "" for nil, the
// given class otherwise. Helper so call sites stay one line.
func Outcome(err error, class string) string {
	if err == nil {
		return ""
	}
	return class
}
