package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

const (
	msgEcho  uint8 = 1
	msgFail  uint8 = 2
	msgUpper uint8 = 3
)

func newEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle(msgEcho, func(p []byte) ([]byte, error) { return p, nil })
	s.Handle(msgFail, func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.Handle(msgUpper, func(p []byte) ([]byte, error) { return bytes.ToUpper(p), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func TestTCPCallRoundTrip(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(msgEcho, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Errorf("resp = %q", resp)
	}
	up, err := c.Call(msgUpper, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(up) != "ABC" {
		t.Errorf("upper = %q", up)
	}
}

func TestTCPRemoteError(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(msgFail, nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("err = %v, want remote error", err)
	}
	if err.Error() != "boom" {
		t.Errorf("message = %q", err.Error())
	}
	// Connection must remain usable after a handler error.
	if _, err := c.Call(msgEcho, []byte("x")); err != nil {
		t.Errorf("call after remote error: %v", err)
	}
}

func TestTCPUnknownType(t *testing.T) {
	_, addr := newEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(200, nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("err = %v, want remote error for unknown type", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	_, addr := newEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := []byte(fmt.Sprintf("g%d-i%d", g, i))
				resp, err := c.Call(msgEcho, msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("response mismatch: %q != %q", resp, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPMultipleClients(t *testing.T) {
	_, addr := newEchoServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i)}
			resp, err := c.Call(msgEcho, msg)
			if err != nil || !bytes.Equal(resp, msg) {
				t.Errorf("client %d: %v %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestCallAfterClientClose(t *testing.T) {
	_, addr := newEchoServer(t)
	c, _ := Dial(addr)
	c.Close()
	if _, err := c.Call(msgEcho, nil); err == nil {
		t.Error("Call after Close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestCallAfterServerClose(t *testing.T) {
	s, addr := newEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call(msgEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.Call(msgEcho, nil); err == nil {
		t.Error("Call after server close succeeded")
	}
}

func TestServerDoubleCloseIdempotent(t *testing.T) {
	s, _ := newEchoServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestReservedTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Handle(0xFF) did not panic")
		}
	}()
	NewServer().Handle(0xFF, func(p []byte) ([]byte, error) { return nil, nil })
}

func TestLocalClient(t *testing.T) {
	s := NewServer()
	s.Handle(msgEcho, func(p []byte) ([]byte, error) { return p, nil })
	s.Handle(msgFail, func(p []byte) ([]byte, error) { return nil, errors.New("local boom") })
	c := NewLocalClient(s)
	resp, err := c.Call(msgEcho, []byte("in-proc"))
	if err != nil || string(resp) != "in-proc" {
		t.Errorf("local call = %q, %v", resp, err)
	}
	if _, err := c.Call(msgFail, nil); !IsRemote(err) {
		t.Errorf("local remote error = %v", err)
	}
	if _, err := c.Call(99, nil); !IsRemote(err) {
		t.Errorf("local unknown type = %v", err)
	}
	c.Close()
	if _, err := c.Call(msgEcho, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close = %v", err)
	}
}

func BenchmarkLocalCall(b *testing.B) {
	s := NewServer()
	s.Handle(msgEcho, func(p []byte) ([]byte, error) { return p, nil })
	c := NewLocalClient(s)
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(msgEcho, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	s := NewServer()
	s.Handle(msgEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(msgEcho, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDetachedHandlerDoesNotBlockPipeline pins the property the flstore
// tail subscription depends on: a long-poll handler on a Detached route
// parks on its own goroutine, so a pipelined request on the same connection
// is served while the long-poll is still outstanding.
func TestDetachedHandlerDoesNotBlockPipeline(t *testing.T) {
	const msgPark uint8 = 4
	s := NewServer()
	s.Handle(msgEcho, func(p []byte) ([]byte, error) { return p, nil })
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Register(msgPark, Route{Detached: true, Serve: func(_ *trace.Ctx, p []byte) ([]byte, error) {
		close(entered)
		<-release
		return append([]byte("woke:"), p...), nil
	}})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	parked := make(chan error, 1)
	var parkedResp []byte
	go func() {
		resp, err := c.Call(msgPark, []byte("tail"))
		parkedResp = resp
		parked <- err
	}()
	// Only proceed once the server has dispatched the long-poll, so the
	// echo below genuinely shares the connection with a parked handler.
	<-entered
	resp, err := c.Call(msgEcho, []byte("ping"))
	if err != nil {
		t.Fatalf("pipelined echo behind parked long-poll: %v", err)
	}
	if string(resp) != "ping" {
		t.Errorf("echo = %q", resp)
	}
	select {
	case err := <-parked:
		t.Fatalf("long-poll completed before release (err=%v)", err)
	default:
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if string(parkedResp) != "woke:tail" {
		t.Errorf("long-poll response = %q", parkedResp)
	}
}

// TestLateRegistrationIsRaceFree registers routes and switches metrics on
// while a LocalClient and a TCP client are calling: a request sees the
// table as it stood when it arrived — the route answers or it is unknown,
// never anything between — and under -race nothing is reported.
func TestLateRegistrationIsRaceFree(t *testing.T) {
	s := NewServer()
	s.Handle(msgEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tcp, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	const late = 100 // types msgEcho+1 .. msgEcho+late arrive while calls run
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range []Client{NewLocalClient(s), tcp} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if resp, err := c.Call(msgEcho, []byte("x")); err != nil || string(resp) != "x" {
					t.Errorf("echo during registration = %q, %v", resp, err)
					return
				}
				typ := msgEcho + 1 + uint8(i%late)
				resp, err := c.Call(typ, nil)
				if err == nil && (len(resp) != 1 || resp[0] != typ) {
					t.Errorf("type %d answered %v", typ, resp)
					return
				}
				if err != nil && !IsRemote(err) {
					t.Errorf("type %d: %v", typ, err)
					return
				}
			}
		}()
	}
	for i := 0; i < late; i++ {
		typ := msgEcho + 1 + uint8(i)
		s.Register(typ, Route{Name: fmt.Sprint("late", i), Serve: func(*trace.Ctx, []byte) ([]byte, error) { return []byte{typ}, nil }})
		if i == late/2 {
			s.EnableMetrics(metrics.NewRegistry(), "test")
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < late; i++ {
		typ := msgEcho + 1 + uint8(i)
		if resp, err := tcp.Call(typ, nil); err != nil || resp[0] != typ {
			t.Fatalf("type %d after registration = %v, %v", typ, resp, err)
		}
	}
}
