package main

import (
	"sync"
	"time"

	"repro/internal/flstore"
	"repro/internal/scale"
)

// ackedOp is one acknowledged append, kept for the output checks.
type ackedOp struct {
	seq  uint64
	lids []uint64
}

// appender is one actor appending batches through its own client instance.
// It is used by one goroutine at a time.
type appender struct {
	actor  int
	client *flstore.Client
	fill   []byte
	seq    uint64
	acked  []ackedOp
	// tap, in a traced run, takes the root span of every append.
	tap
}

func newAppender(actor int, client *flstore.Client, fill []byte, rec *recorder) *appender {
	a := &appender{actor: actor, client: client, fill: fill}
	if rec != nil {
		a.tap = newTap(rec, actor, -1)
	}
	return a
}

// append sends one batch of n records due at intended.
func (a *appender) append(n int, intended time.Time) error {
	a.seq++
	recs := newBatch(uint32(a.actor), a.seq, n, intended, a.fill)
	tracing := a.rec != nil && a.rec.on.Load()
	var start int64
	if tracing {
		start = a.rec.now()
	}
	lids, err := a.client.AppendBatch(recs)
	if tracing {
		a.span(kClientAppend, start, reqID(a.actor, a.seq), firstOf(lids), n)
	}
	if err != nil {
		return err
	}
	a.acked = append(a.acked, ackedOp{a.seq, lids})
	return nil
}

// openLoop is the outcome of one open-loop phase.
type openLoop struct {
	phase   time.Duration
	samples []sample // latency from the intended start, every session
	// startDelay is how long after its intended start each operation began;
	// idleLag keeps those of operations whose session was idle when they
	// were due, which is the generator's own lateness (sleep overshoot).
	startDelay []sample
	idleLag    []time.Duration
	// service is the time from the actual start to the end of each
	// operation, the quantity the traced root span also measures.
	service []time.Duration
	// gap is the mean time between two arrivals of one session.
	gap    time.Duration
	ledger scale.Ledger
}

// runOpenLoop drives sessions serial sessions through seeded Poisson
// arrival schedules at rate operations a second in total for d, with
// scale.Engine. Latency counts from the intended start, so an operation
// queued behind a slow one is charged the wait. op runs one operation of
// the given session.
func runOpenLoop(sessions int, rate float64, d time.Duration, seed uint64, op func(session int, intended time.Time) error) openLoop {
	type perSession struct {
		samples, startDelay []sample
		idleLag, service    []time.Duration
		prevEnd             time.Time
	}
	per := make([]perSession, sessions)
	t0 := time.Now()
	eng := scale.NewEngine(scale.Config{
		Sessions: sessions, TargetPerSec: rate, Duration: d, Seed: seed,
		Op: func(s int, intended time.Time) error {
			ps := &per[s]
			begin := time.Now()
			at := intended.Sub(t0)
			ps.startDelay = append(ps.startDelay, sample{at, begin.Sub(intended)})
			if !ps.prevEnd.After(intended) {
				ps.idleLag = append(ps.idleLag, begin.Sub(intended))
			}
			err := op(s, intended)
			end := time.Now()
			ps.prevEnd = end
			if err == nil {
				ps.samples = append(ps.samples, sample{at, end.Sub(intended)})
				ps.service = append(ps.service, end.Sub(begin))
			}
			return err
		},
	})
	st := eng.Run()
	out := openLoop{phase: d, ledger: st.Ledger, gap: time.Duration(float64(sessions) / rate * float64(time.Second))}
	for i := range per {
		out.samples = append(out.samples, per[i].samples...)
		out.startDelay = append(out.startDelay, per[i].startDelay...)
		out.idleLag = append(out.idleLag, per[i].idleLag...)
		out.service = append(out.service, per[i].service...)
	}
	return out
}

// backlogGrowth is the median start delay in the last third of the phase
// over that in the first third, and the former by itself. A serial session
// queues Poisson arrivals behind a busy operation by design; what must not
// happen is growth. The median, because one stall of the host in either
// third moves a mean by more than a steadily growing queue would.
func (o *openLoop) backlogGrowth() (ratio float64, behind time.Duration) {
	var first, last []float64
	for _, s := range o.startDelay {
		switch {
		case s.at < o.phase/3:
			first = append(first, float64(s.lat))
		case s.at >= 2*o.phase/3:
			last = append(last, float64(s.lat))
		}
	}
	if len(first) == 0 || len(last) == 0 || median(first) <= 0 {
		return 1, 0
	}
	return median(last) / median(first), time.Duration(median(last))
}

// split cuts the outcome into the operations due before d and those due
// from d on. The figures that carry no time (ledger, idle lag, service
// time) cover the whole run and stay with the first part.
func (o *openLoop) split(d time.Duration) (before, after openLoop) {
	before, after = *o, openLoop{phase: o.phase - d, gap: o.gap}
	before.phase, before.samples, before.startDelay = d, nil, nil
	cut := func(all []sample, lo, hi *[]sample) {
		for _, s := range all {
			if s.at < d {
				*lo = append(*lo, s)
			} else {
				*hi = append(*hi, sample{s.at - d, s.lat})
			}
		}
	}
	cut(o.samples, &before.samples, &after.samples)
	cut(o.startDelay, &before.startDelay, &after.startDelay)
	return before, after
}

func (o *openLoop) genLagP99Ms() float64 { return quantile(sortedMs(o.idleLag), 0.99) }

// closedLoop is the outcome of one closed-loop phase.
type closedLoop struct {
	phase   time.Duration
	samples []sample // at = when the operation ended
	counts  []int    // records moved by each operation
	failed  uint64
}

// runClosedLoop runs callers goroutines that each issue the next operation
// as soon as the previous one returned, for d. op returns how many records
// the operation moved.
func runClosedLoop(callers int, d time.Duration, op func(caller int) (int, error)) closedLoop {
	outs := make([]closedLoop, callers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for {
				begin := time.Now()
				if begin.Sub(t0) >= d {
					return
				}
				n, err := op(c)
				end := time.Now()
				if err != nil {
					// A deployment that fails every call would spin here.
					if o.failed++; o.failed >= 100 {
						return
					}
					continue
				}
				o.samples = append(o.samples, sample{end.Sub(t0), end.Sub(begin)})
				o.counts = append(o.counts, n)
			}
		}(c)
	}
	wg.Wait()
	all := closedLoop{phase: d}
	for i := range outs {
		all.samples = append(all.samples, outs[i].samples...)
		all.counts = append(all.counts, outs[i].counts...)
		all.failed += outs[i].failed
	}
	return all
}

// recsPerSec is the median over whole windows of the records moved a second.
func (c *closedLoop) recsPerSec() (float64, int) {
	r := windowRates(c.samples, c.counts, c.phase)
	return median(r), len(r)
}
