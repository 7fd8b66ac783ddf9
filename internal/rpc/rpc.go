// Package rpc is the request/response substrate connecting Chariots
// components: a small framed-message RPC over TCP with pipelining, plus an
// in-process transport with identical semantics for simulations that
// measure algorithmic (not kernel-networking) behaviour.
//
// A protocol over it is a table of Message rows (message.go): a row's Call
// is the stub and its Serve registers the handler, as one Route per message
// type. Requests on one connection are served in order (FIFO), which upper
// layers rely on for the "send appends to the same maintainer in the
// desired order" form of explicit ordering (§5.4); concurrency comes from
// multiple connections and from routes marked Detached. Serving a request
// takes no server-wide lock: the routes live in one table behind an atomic
// pointer that registration replaces and requests load.
package rpc

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// msgError is the reserved response type carrying a handler error
// (errors.go).
const msgError uint8 = 0xFF

// ErrClosed is returned by calls on a closed client or server.
var ErrClosed = errors.New("rpc: closed")

// Handler serves one request payload and returns the response payload.
//
// The payload is BORROWED: it aliases the connection's reusable read
// buffer and is valid only for the duration of the call. A handler that
// needs any part of it afterwards must copy (the record codec's
// materializing decoders — core.DecodeRecords / core.DecodeRecordsShared
// — already do). The returned response is owned by the RPC layer only
// until the frame is written, so handlers may return freshly built or
// long-lived slices alike.
//
// tc is the caller's trace context: the envelope's, restamped at arrival,
// when the request came traced, the zero Ctx (unsampled) otherwise. It is
// never nil and is private to the request, so handlers may advance it (Hop)
// freely; they record spans only through it, which keeps the unsampled path
// branch-and-return.
type Handler func(tc *trace.Ctx, payload []byte) ([]byte, error)

// Client is the calling side of the RPC substrate. Implementations are
// safe for concurrent use.
type Client interface {
	// Call sends a request of the given type and waits for its response.
	// The request payload is borrowed only for the duration of the call
	// (callers may reuse or pool it afterwards); the returned response
	// is owned by the caller.
	Call(msgType uint8, payload []byte) ([]byte, error)
	Close() error
}

// Route is how a server serves one message type.
type Route struct {
	// Name is the msg_type label of the type's latency histogram — a
	// protocol row's name; the type's number when empty.
	Name string
	// Detached serves frames of this type in their own goroutine instead
	// of the connection's in-order serving loop. This is for handlers that
	// may park (long-polls): a detached request does not head-of-line-block
	// the pipelined requests behind it on the same connection — clients
	// match responses by ReqID, so out-of-order completion is already part
	// of the protocol. Detached handlers receive a private copy of the
	// payload (the connection's read scratch moves on underneath them) and
	// therefore lose the FIFO ordering guarantee relative to other requests
	// on the connection.
	Detached bool
	Serve    Handler
}

// route is a registered Route with its instrument resolved.
type route struct {
	Route
	latency *metrics.BucketHistogram // nil while metrics are off
}

// routeTable is everything serving a request needs from the server, reached
// with one atomic load and indexed by message type. It is never edited in
// place: Register and EnableMetrics store an edited copy.
type routeTable struct {
	routes  [256]route
	metrics *serverMetrics // nil until EnableMetrics
}

// Server dispatches framed requests to registered handlers.
type Server struct {
	table atomic.Pointer[routeTable]

	mu       sync.Mutex // serializes table replacement; guards the fields below
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	s := &Server{conns: make(map[net.Conn]struct{})}
	s.table.Store(&routeTable{})
	return s
}

// Register installs r for msgType, replacing any earlier route. It may be
// called at any time, also while the server is serving (an in-process
// LocalClient dispatches without Listen, so there is no moment to freeze
// the table at): a request sees the table as it stood when it arrived.
func (s *Server) Register(msgType uint8, r Route) {
	if msgType == msgError || msgType == msgTraced {
		panic("rpc: message types 0xFE and 0xFF are reserved")
	}
	if r.Name == "" {
		r.Name = strconv.Itoa(int(msgType))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.table.Load()
	t.routes[msgType] = route{Route: r, latency: t.metrics.histFor(r.Name)}
	s.table.Store(&t)
}

// Handle is Register for a bare function served in order: what bench/ and
// this package's tests register echo handlers with.
func (s *Server) Handle(msgType uint8, h func(payload []byte) ([]byte, error)) {
	s.Register(msgType, Route{Serve: func(_ *trace.Ctx, p []byte) ([]byte, error) { return h(p) }})
}

// dispatch runs the handler for one opened request and returns the response
// frame's type and payload.
func (t *routeTable) dispatch(tc trace.Ctx, msgType uint8, payload []byte) (uint8, []byte) {
	r := &t.routes[msgType]
	if r.Serve == nil {
		return msgError, errorPayload(fmt.Errorf("rpc: no handler for message type %d", msgType))
	}
	m := t.metrics
	var start time.Time
	if m != nil {
		m.inflight.Inc()
		start = time.Now()
	}
	// The server-side rpc.serve span covers queueing plus handler time for
	// sampled requests; handler-recorded hops nest inside it on the
	// timeline, so budget attribution charges rpc.serve only for time the
	// handler didn't itself account for.
	sp := trace.Begin(tc, "rpc.serve")
	resp, err := r.Serve(&tc, payload)
	sp.End(trace.Default(), trace.Outcome(err, "error"), 0, 0)
	respType := msgType
	if err != nil {
		respType, resp = msgError, errorPayload(err)
	}
	if m != nil {
		r.latency.ObserveSince(start)
		m.bytesIn.Add(uint64(len(payload)))
		m.bytesOut.Add(uint64(len(resp)))
		if err != nil {
			m.errors.Inc()
		}
		m.inflight.Dec()
	}
	return respType, resp
}

// Listen binds to addr ("host:port"; ":0" for an ephemeral port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil, ErrClosed
	}
	s.listener = l
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
	return l.Addr(), nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One reusable read buffer and one reusable write buffer per
	// connection: requests are served in order, so the request frame is
	// fully consumed (handlers copy what they keep) before the next read
	// overwrites the scratch.
	rd := wire.NewReader(conn)
	wbuf := wire.GetBuf()
	defer wire.PutBuf(wbuf)
	writeMu := &sync.Mutex{}
	for {
		f, err := rd.Next()
		if err != nil {
			return
		}
		t := s.table.Load()
		tc, msgType, payload, err := open(f.Type, f.Payload)
		var respType uint8
		var resp []byte
		switch {
		case err != nil:
			respType, resp = msgError, errorPayload(err)
		case t.routes[msgType].Detached:
			// The read scratch is reused by the next Next(), so the
			// detached goroutine gets its own copy of the payload.
			go t.serveDetached(conn, writeMu, f.ReqID, tc, msgType, append([]byte(nil), payload...))
			continue
		default:
			respType, resp = t.dispatch(tc, msgType, payload)
		}
		writeMu.Lock()
		err = wire.WriteBuf(conn, wbuf, f.ReqID, respType, resp)
		writeMu.Unlock()
		if err != nil {
			return
		}
	}
}

// serveDetached serves one request off the connection's serving loop, with
// a write buffer of its own; only the connection write lock is shared.
func (t *routeTable) serveDetached(conn net.Conn, writeMu *sync.Mutex, reqID uint64, tc trace.Ctx, msgType uint8, payload []byte) {
	respType, resp := t.dispatch(tc, msgType, payload)
	dbuf := wire.GetBuf()
	writeMu.Lock()
	// A write error here also poisons the serving loop's next write, which
	// tears the connection down.
	_ = wire.WriteBuf(conn, dbuf, reqID, respType, resp)
	writeMu.Unlock()
	wire.PutBuf(dbuf)
}

// Close stops the listener, closes live connections, and waits for all
// connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
	return nil
}

// TCPClient is a Client over one TCP connection with pipelined calls.
type TCPClient struct {
	conn    net.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wire.Frame
	closed  bool
	readErr error

	peer
}

type peer struct{ v atomic.Value }

// Peer returns what the callers of this connection learn together about
// the server at the other end, kept as long as the connection lives; it
// keeps v first if it keeps nothing yet.
func (p *peer) Peer(v any) any {
	p.v.CompareAndSwap(nil, v)
	return p.v.Load()
}

// Dial connects to a Server at addr.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{conn: conn, pending: make(map[uint64]chan wire.Frame)}
	go c.readLoop()
	return c, nil
}

func (c *TCPClient) readLoop() {
	// Responses cross a channel into the waiting Call goroutine, which
	// owns the payload after Call returns — so this loop must hand over
	// freshly allocated payloads (wire.Read), not a reused scratch.
	for {
		f, err := wire.Read(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.closed = true
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ReqID]
		if ok {
			delete(c.pending, f.ReqID)
		}
		c.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// Call implements Client.
func (c *TCPClient) Call(msgType uint8, payload []byte) ([]byte, error) {
	ch := make(chan wire.Frame, 1)
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := wire.Write(c.conn, id, msgType, payload)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}

	f, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, fmt.Errorf("rpc: connection lost: %w", err)
	}
	if f.Type == msgError {
		return nil, remoteError(f.Payload)
	}
	return f.Payload, nil
}

// Close implements Client.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// LocalClient is a Client that invokes a Server's handlers directly in
// process — same dispatch semantics, no sockets. Simulations use it when
// the experiment measures the algorithms rather than kernel networking.
type LocalClient struct {
	srv    *Server
	closed atomic.Bool
	peer
}

// NewLocalClient returns an in-process client for s.
func NewLocalClient(s *Server) *LocalClient { return &LocalClient{srv: s} }

// Call implements Client.
func (c *LocalClient) Call(msgType uint8, payload []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	tc, msgType, payload, err := open(msgType, payload)
	if err != nil {
		return nil, &RemoteError{Message: err.Error()}
	}
	respType, resp := c.srv.table.Load().dispatch(tc, msgType, payload)
	if respType == msgError {
		return nil, remoteError(resp)
	}
	return resp, nil
}

// Close implements Client.
func (c *LocalClient) Close() error {
	c.closed.Store(true)
	return nil
}
