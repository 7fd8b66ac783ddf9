package rpc

import "repro/internal/metrics"

// serverMetrics instruments one Server's dispatch path. All series carry a
// component label (e.g. "maintainer", "controller", "ingest") so one
// process hosting several RPC servers exports distinguishable streams.
type serverMetrics struct {
	reg       *metrics.Registry
	component string

	inflight *metrics.Gauge
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
	errors   *metrics.Counter
}

// EnableMetrics registers this server's dispatch instrumentation with reg:
// per-message-type call latency histograms, an in-flight requests gauge,
// payload bytes in/out, and a handler-error counter. The instruments are
// shared by all connections. Each route's histogram is resolved here, or
// by Register for a route that comes later, so observing a call looks
// nothing up.
func (s *Server) EnableMetrics(reg *metrics.Registry, component string) {
	lbl := metrics.L("component", component)
	m := &serverMetrics{
		reg:       reg,
		component: component,
		inflight:  reg.Gauge("rpc_server_inflight_requests", lbl),
		bytesIn:   reg.Counter("rpc_server_bytes_in_total", lbl),
		bytesOut:  reg.Counter("rpc_server_bytes_out_total", lbl),
		errors:    reg.Counter("rpc_server_errors_total", lbl),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.table.Load()
	t.metrics = m
	for i := range t.routes {
		if r := &t.routes[i]; r.Serve != nil {
			r.latency = m.histFor(r.Name)
		}
	}
	s.table.Store(&t)
}

// histFor returns the latency histogram of the message type named name
// (nil while metrics are off). Message types are a small fixed space, so
// per-type series are bounded cardinality.
func (m *serverMetrics) histFor(name string) *metrics.BucketHistogram {
	if m == nil {
		return nil
	}
	return m.reg.Histogram("rpc_server_call_seconds", metrics.LatencyBuckets,
		metrics.L("component", m.component), metrics.L("msg_type", name))
}
