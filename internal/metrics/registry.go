package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the server-side half of the package: a concurrency-safe
// Registry of named, labeled time series — monotone counters, gauges, and
// fixed-bucket histograms — with Prometheus text exposition and a JSON
// snapshot. The experiment-side instruments above (ThroughputSampler, the
// reservoir Histogram, Stopwatch) stay as they are: they serve bounded
// offline runs, while the Registry serves long-running deployments scraped
// by operators.

// Label is one name=value dimension of a series. Series identity is the
// metric name plus the label set (order-insensitive).
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Gauge is a value that can go up and down, safe for concurrent use. The
// zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets are the default upper bounds (seconds) for latency
// histograms: 50µs to 10s, roughly ×2–2.5 per step — wide enough to span an
// in-memory append and a cross-continent WAN round trip.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// BatchBuckets are default upper bounds for record-count distributions
// (batch sizes, queue drains).
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// BucketHistogram is a fixed-bucket histogram safe for concurrent use and
// bounded in memory regardless of how long the server runs — the server-path
// replacement for the reservoir Histogram, whose retained-prefix quantiles
// go stale once its capacity fills. Buckets are cumulative-rendered for
// Prometheus and mergeable across instances that share bounds.
type BucketHistogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated

	// Exemplar state: the slowest ObserveEx observation of the current
	// window, with the trace id that produced it — the link from a
	// histogram's tail to the flight recorder. Guarded by exMu; only the
	// ObserveEx path touches it, so plain Observe stays lock-free.
	exMu    sync.Mutex
	exTrace uint64
	exValue float64
	exAt    int64 // unix nanos the current exemplar was installed
}

// exemplarWindow bounds how long an exemplar survives without being
// beaten: after it, the next traced observation replaces it even if
// faster, so the exposed trace id stays recent enough to still be in the
// flight recorder's ring.
const exemplarWindow = int64(time.Minute)

// NewBucketHistogram returns a histogram with the given ascending upper
// bounds (LatencyBuckets when nil).
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not strictly ascending")
		}
	}
	return &BucketHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *BucketHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *BucketHistogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// ObserveEx is Observe plus an exemplar: when traceID is non-zero and the
// observation is the slowest of the current window (or the window
// expired), the (value, traceID) pair is retained and exposed in the JSON
// snapshot — the pointer from "this histogram has a slow tail" to "this
// trace shows why". traceID 0 degrades to plain Observe.
func (h *BucketHistogram) ObserveEx(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	now := time.Now().UnixNano()
	h.exMu.Lock()
	if v >= h.exValue || now-h.exAt > exemplarWindow {
		h.exTrace, h.exValue, h.exAt = traceID, v, now
	}
	h.exMu.Unlock()
}

// ObserveSinceEx records the seconds elapsed since start with an
// exemplar trace id (0 degrades to ObserveSince).
func (h *BucketHistogram) ObserveSinceEx(start time.Time, traceID uint64) {
	h.ObserveEx(time.Since(start).Seconds(), traceID)
}

// Exemplar returns the current exemplar (traceID 0 when none was ever
// recorded).
func (h *BucketHistogram) Exemplar() (traceID uint64, v float64) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exTrace, h.exValue
}

// Count returns the number of observations.
func (h *BucketHistogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the mean observation (0 when empty).
func (h *BucketHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// bucketCounts returns a point-in-time copy of the per-bucket counts
// (non-cumulative; last entry is the +Inf overflow bucket).
func (h *BucketHistogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket — the resolution an operator dashboard needs,
// at fixed memory. Observations in the +Inf bucket report the top bound.
func (h *BucketHistogram) Quantile(q float64) float64 {
	return quantileFromBuckets(h.bounds, h.bucketCounts(), q)
}

// Merge folds o's observations into h. The histograms must share bounds
// (per-shard histograms aggregated for a fleet view).
func (h *BucketHistogram) Merge(o *BucketHistogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("metrics: merging histograms with %d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("metrics: merging histograms with different bounds at %d", i)
		}
	}
	for i := range o.counts {
		n := o.counts[i].Load()
		if n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.total.Add(o.total.Load())
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + o.Sum())
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

func quantileFromBuckets(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(bounds) {
			return bounds[len(bounds)-1] // +Inf bucket: report top bound
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// seriesKind discriminates the instrument behind a series.
type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels []Label // sorted by Name
	kind   seriesKind
	c      *Counter
	g      *Gauge
	h      *BucketHistogram
	// fn backs function-based counters/gauges; atomic because scrapes
	// read it lock-free while re-registration may replace it.
	fn atomic.Pointer[func() float64]
}

// value returns the scalar value of a counter/gauge series.
func (s *series) value() float64 {
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	if s.c != nil {
		return float64(s.c.Value())
	}
	if s.g != nil {
		return s.g.Value()
	}
	return 0 // func-backed series scraped before its fn was stored
}

// Registry is a concurrency-safe collection of named, labeled series. It
// renders itself in Prometheus text format for scrapes and as JSON for
// programmatic consumers (logctl stats). The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series // key: name + canonical label signature
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

func canonical(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func seriesKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// register returns the existing series for (name, labels) or installs a new
// one built by mk. Kind mismatches across registrations are programming
// errors and panic.
func (r *Registry) register(name string, labels []Label, kind seriesKind, mk func() *series) *series {
	labels = canonical(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: series %q re-registered as %v (was %v)", name, kind, s.kind))
		}
		return s
	}
	s := mk()
	s.name = name
	s.labels = labels
	s.kind = kind
	r.series[key] = s
	return s
}

// Counter returns the counter registered under name+labels, creating it on
// first use. Repeated calls with the same identity return the same counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.register(name, labels, kindCounter, func() *series {
		return &series{c: &Counter{}}
	}).c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.register(name, labels, kindGauge, func() *series {
		return &series{g: &Gauge{}}
	}).g
}

// Histogram returns the bucketed histogram registered under name+labels,
// creating it with the given bounds (LatencyBuckets when nil) on first use.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *BucketHistogram {
	return r.register(name, labels, kindHistogram, func() *series {
		return &series{h: NewBucketHistogram(bounds)}
	}).h
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time —
// the fit for state the system already tracks (channel depths, buffer sizes,
// head positions) where a stored gauge would just lag the truth. Re-
// registering the same identity replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	s := r.register(name, labels, kindGauge, func() *series { return &series{} })
	s.fn.Store(&fn)
}

// CounterFunc registers a counter whose value is read by fn at scrape time.
// fn must be monotone non-decreasing (it mirrors an existing Counter or
// equivalent). Re-registering the same identity replaces the function.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	s := r.register(name, labels, kindCounter, func() *series { return &series{} })
	s.fn.Store(&fn)
}

// snapshotSeries returns the registered series sorted by name then label
// signature — the deterministic order both renderers share.
func (r *Registry) snapshotSeries() []*series {
	r.mu.RLock()
	out := make([]*series, 0, len(r.series))
	keys := make(map[*series]string, len(r.series))
	for k, s := range r.series {
		out = append(out, s)
		keys[s] = k
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return keys[out[i]] < keys[out[j]] })
	return out
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} with extra pairs appended, or "" when
// empty.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (one # TYPE line per metric family, series sorted
// deterministically).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
			lastFamily = s.name
		}
		switch s.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, labelString(s.labels), formatFloat(s.value()))
		case kindHistogram:
			counts := s.h.bucketCounts()
			var cum uint64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(s.h.bounds) {
					le = formatFloat(s.h.bounds[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, labelString(s.labels, L("le", le)), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, labelString(s.labels), formatFloat(s.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, labelString(s.labels), cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SeriesSnapshot is the JSON form of one series at one instant.
type SeriesSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	// Value is the scalar for counters and gauges.
	Value float64 `json:"value,omitempty"`
	// Histogram-only fields. Counts are per-bucket (not cumulative); the
	// final entry is the +Inf overflow bucket.
	Count  uint64    `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	// ExemplarTrace/ExemplarValue link the histogram to the flight
	// recorder: the hex trace id of the slowest recent traced observation
	// and its value (absent when no exemplar was recorded).
	ExemplarTrace string  `json:"exemplar_trace,omitempty"`
	ExemplarValue float64 `json:"exemplar_value,omitempty"`
}

// Quantile estimates the q-quantile of a histogram snapshot (0 for scalar
// series and empty histograms).
func (s SeriesSnapshot) Quantile(q float64) float64 {
	if s.Kind != "histogram" || len(s.Bounds) == 0 {
		return 0
	}
	return quantileFromBuckets(s.Bounds, s.Counts, q)
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	Series []SeriesSnapshot `json:"series"`
}

// Find returns the first series with the given name whose labels include
// every pair in match (nil when absent).
func (sn Snapshot) Find(name string, match map[string]string) *SeriesSnapshot {
	for i := range sn.Series {
		s := &sn.Series[i]
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return nil
}

// Snapshot captures every series.
func (r *Registry) Snapshot() Snapshot {
	series := r.snapshotSeries()
	out := Snapshot{Series: make([]SeriesSnapshot, 0, len(series))}
	for _, s := range series {
		ss := SeriesSnapshot{Name: s.name, Kind: s.kind.String()}
		if len(s.labels) > 0 {
			ss.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				ss.Labels[l.Name] = l.Value
			}
		}
		switch s.kind {
		case kindCounter, kindGauge:
			ss.Value = s.value()
		case kindHistogram:
			ss.Count = s.h.Count()
			ss.Sum = s.h.Sum()
			ss.Bounds = append([]float64(nil), s.h.bounds...)
			ss.Counts = s.h.bucketCounts()
			if t, v := s.h.Exemplar(); t != 0 {
				ss.ExemplarTrace = strconv.FormatUint(t, 16)
				ss.ExemplarValue = v
			}
		}
		out.Series = append(out.Series, ss)
	}
	return out
}

// MarshalJSON renders the registry's snapshot (so a *Registry can be passed
// directly to json encoders).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
