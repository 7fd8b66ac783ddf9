package rpc

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Trace propagation over the wire: a sampled call is wrapped in a
// reserved envelope frame (msgTraced) whose payload prefixes the inner
// message with the 17-byte trace header, so the framed protocol itself
// is unchanged and unsampled traffic never pays for the header. The
// server unwraps the envelope once, before it looks the route up,
// reconstructs the trace context, and hands it to the handler.
//
// Envelope payload layout (little-endian):
//
//	u64 traceID | u64 spanID | u8 flags | u8 innerType | inner payload
//
// Only (T, S, F) cross the wire. The receiver restamps the context's At
// at arrival, so network transit shows up as the queue component of the
// first server-side hop rather than being misattributed to the sender.

// msgTraced is the reserved envelope type for trace-carrying requests.
const msgTraced uint8 = 0xFE

var errShortTraced = errors.New("rpc: traced frame shorter than header")

// appendTracedHeader prefixes dst with the envelope header for tc/inner.
func appendTracedHeader(dst []byte, tc trace.Ctx, inner uint8) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tc.T))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tc.S))
	dst = append(dst, tc.F, inner)
	return dst
}

// open unwraps a request that came in a traced envelope into the trace
// context (restamped at now), the inner message type and the inner payload
// (aliasing p); any other request is itself, untraced. The server does this
// once, before it looks the route up: the route, its serving class and its
// histogram are the inner type's.
func open(msgType uint8, p []byte) (trace.Ctx, uint8, []byte, error) {
	if msgType != msgTraced {
		return trace.Ctx{}, msgType, p, nil
	}
	d := wire.NewDec(p)
	tc := trace.Ctx{T: trace.TraceID(d.U64()), S: trace.SpanID(d.U64()), F: d.U8(), At: time.Now().UnixNano()}
	inner := d.U8()
	if d.Err() != nil {
		return trace.Ctx{}, 0, nil, errShortTraced
	}
	return tc, inner, d.Rest(), nil
}

// CallTraced issues a call carrying tc's trace context to the server.
// Unsampled contexts (or nil) degrade to a plain c.Call — one branch, no
// envelope, no allocation. Sampled calls record an "rpc.call" span
// around the exchange and advance tc's hop timestamp past it, so the
// caller's next hop doesn't re-cover the server's time.
//
// Works over any Client (TCP, local, reconnecting, fault-injecting
// wrappers) since the envelope is ordinary payload bytes to them.
func CallTraced(c Client, tc *trace.Ctx, msgType uint8, payload []byte) ([]byte, error) {
	if tc == nil || !tc.Sampled() {
		return c.Call(msgType, payload)
	}
	st := trace.Begin(*tc, "rpc.call")
	buf := wire.GetBuf()
	*buf = appendTracedHeader(*buf, *tc, msgType)
	*buf = append(*buf, payload...)
	resp, err := c.Call(msgTraced, *buf)
	wire.PutBuf(buf)
	st.End(trace.Default(), trace.Outcome(err, "error"), 0, 0)
	tc.At = time.Now().UnixNano()
	return resp, err
}

// TracedContext peeks the trace context of a traced envelope payload
// without consuming it; ok is false for plain frames.
func TracedContext(msgType uint8, payload []byte) (trace.Ctx, bool) {
	tc, _, _, err := open(msgType, payload)
	return tc, err == nil && msgType == msgTraced
}
