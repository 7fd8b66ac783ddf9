package rpc

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/wire"
)

// A protocol over this substrate is a table of Message rows, one per
// message type (DESIGN.md §3.8). A row holds everything there is to know
// about its message — the type byte, the name metrics and errors use, how
// it is served, how its request and reply are laid out — and its two
// methods are the only stub and the only handler adapter the protocol has.
// The layouts are Codec values shared between rows, so a shape (a record
// batch, an LId list, one u64) is written once however many carry it.

// Codec is one payload layout.
type Codec[T any] struct {
	// Put appends v's encoding to dst. Requests are encoded into a pooled
	// buffer; a reply is encoded with dst == nil, which is where a shape
	// that can compute its size allocates it exactly.
	Put func(dst []byte, v T) ([]byte, error)
	// Get decodes a payload. The payload is borrowed (see Handler), so
	// what Get returns must not alias it. tc is the request's trace
	// context, for shapes whose value carries one (the wire does not: it
	// rides the envelope); nil when a reply is being decoded.
	Get func(p []byte, tc *trace.Ctx) (T, error)
}

// None is the value of an empty payload, and Empty its layout.
type None = struct{}

var Empty = Codec[None]{
	Put: func(dst []byte, _ None) ([]byte, error) { return dst, nil },
	Get: func([]byte, *trace.Ctx) (None, error) { return None{}, nil },
}

// NoArg and NoReply fit the methods that take or return nothing but an
// error to the one handler form Serve takes.
func NoArg[R any](fn func() (R, error)) func(None) (R, error) {
	return func(None) (R, error) { return fn() }
}

func NoReply[Q any](fn func(Q) error) func(Q) (None, error) {
	return func(q Q) (None, error) { return None{}, fn(q) }
}

// Message is one row of a protocol table: a message type with request Q
// and reply R.
type Message[Q, R any] struct {
	Type uint8
	Name string
	// Detached serves the message off the connection's in-order loop (see
	// Route.Detached).
	Detached bool
	Req      Codec[Q]
	Reply    Codec[R]
	// TraceOf, when set, extracts the trace context a request carries;
	// a sampled one crosses the wire in the traced envelope.
	TraceOf func(Q) trace.Ctx
}

// Call sends q to the server behind c and decodes the reply.
func (m *Message[Q, R]) Call(c Client, q Q) (R, error) {
	var zero R
	req := wire.GetBuf()
	var err error
	if *req, err = m.Req.Put(*req, q); err != nil {
		wire.PutBuf(req)
		return zero, fmt.Errorf("rpc: encoding %s request: %w", m.Name, err)
	}
	var resp []byte
	if m.TraceOf != nil {
		tc := m.TraceOf(q)
		resp, err = CallTraced(c, &tc, m.Type, *req)
	} else {
		resp, err = c.Call(m.Type, *req)
	}
	// Call only borrowed the request; the response is the caller's.
	wire.PutBuf(req)
	if err != nil {
		return zero, err
	}
	r, err := m.Reply.Get(resp, nil)
	if err != nil {
		return zero, fmt.Errorf("rpc: %s response: %w", m.Name, err)
	}
	return r, nil
}

// Serve registers fn as the message's handler on srv.
func (m *Message[Q, R]) Serve(srv *Server, fn func(Q) (R, error)) {
	srv.Register(m.Type, Route{Name: m.Name, Detached: m.Detached, Serve: func(tc *trace.Ctx, p []byte) ([]byte, error) {
		q, err := m.Req.Get(p, tc)
		if err != nil {
			return nil, fmt.Errorf("rpc: %s request: %w", m.Name, err)
		}
		r, err := fn(q)
		if err != nil {
			return nil, err
		}
		return m.Reply.Put(nil, r)
	}})
}
