package chariots

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/vclock"
)

// Token is the causality token circulated by the queues (§6.2): the
// current maximum applied TOId of each datacenter, the next LId to assign,
// and (optionally) the deferred records whose dependencies are not yet
// satisfied. Exactly one token exists per datacenter; whichever queue holds
// it appends everything appendable, then forwards it around the ring.
type Token struct {
	Applied  vclock.Vector
	NextLId  uint64
	Deferred []*core.Record
}

// NewToken returns the initial token for a datacenter of n.
func NewToken(n int) *Token {
	return &Token{Applied: vclock.NewVector(n), NextLId: 1}
}

// Queue is one machine of the LId-assignment stage (§6.2). It buffers
// records arriving from the filters in its inbox; when it holds the token
// it drains the inbox, applies every record whose total order and causal
// dependencies are satisfied (assigning TOIds to fresh local records and
// LIds to everything applied), forwards the applied records to the owning
// FLStore maintainers, and passes the token on.
type Queue struct {
	StageMachine
	index       int
	state       *dcState
	in          chan []*core.Record
	buffered    chan []*core.Record
	tokenIn     chan *Token
	placement   flstore.Placement
	maintainers []flstore.MaintainerAPI

	mu   sync.Mutex
	next chan<- *Token // next queue's tokenIn; mutable for ring growth

	// carryDeferred selects whether unsatisfied records travel with the
	// token (lower latency, more token I/O) or stay at this queue (§6.2
	// discusses the trade-off; the ablation bench measures it).
	carryDeferred bool
	parked        []*core.Record
	// triedAt is the token's NextLId when this queue last tried its
	// waiting records. Applicability depends only on the token's applied
	// vector, which moves exactly when NextLId does, so until NextLId
	// differs there is nothing to retry.
	triedAt  uint64
	maxDrain int

	// Applied counts records this queue appended to the log.
	Applied metrics.Counter
	// passes counts how often this queue handed the token on.
	passes metrics.Counter
}

// NewQueue builds a queue machine.
func NewQueue(name string, limiter *ratelimit.Limiter, index int, state *dcState, in chan []*core.Record, placement flstore.Placement, maintainers []flstore.MaintainerAPI, carryDeferred bool) *Queue {
	return &Queue{
		StageMachine:  StageMachine{Name: name, Limiter: limiter},
		index:         index,
		state:         state,
		in:            in,
		buffered:      make(chan []*core.Record, cap(in)+1),
		tokenIn:       make(chan *Token, 1),
		placement:     placement,
		maintainers:   maintainers,
		carryDeferred: carryDeferred,
		// Keep per-cycle batches below the capacity limiters' burst so
		// the queue→maintainer→store charges overlap in time the way
		// independent machines do, instead of serializing one
		// token-bucket sleep after another within a single cycle.
		maxDrain: 1024,
	}
}

// In returns the queue's inbox.
func (q *Queue) In() chan []*core.Record { return q.in }

// TokenIn returns the channel on which this queue receives the token.
func (q *Queue) TokenIn() chan *Token { return q.tokenIn }

// SetNext rewires where this queue forwards the token (ring membership).
func (q *Queue) SetNext(next chan<- *Token) {
	q.mu.Lock()
	q.next = next
	q.mu.Unlock()
}

func (q *Queue) nextChan() chan<- *Token {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.next
}

// run is the queue machine's execution: three concurrent activities that
// mirror the real machine. The *pump* receives records from the filters —
// this is where the machine's capacity limiter is charged, because
// receiving/buffering is the bulk of a queue's per-record work and happens
// concurrently across queues. The *token section* (this loop) does only
// the serialized part: checking applicability and assigning TOIds/LIds,
// which is counter arithmetic — keeping token-holding time minimal is what
// lets the queue stage scale with machines. The per-maintainer
// *forwarders* push applied records into FLStore, charging the maintainer
// and store machines without holding the token.
func (q *Queue) run(stop <-chan struct{}) {
	// Every return below is on stop, which also ends the pump and the
	// forwarders; the deferred Wait joins them.
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.pump(stop)
	}()
	outs := make([]chan []*core.Record, len(q.maintainers))
	for i := range outs {
		outs[i] = make(chan []*core.Record, 8)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q.forward(stop, i, outs[i])
		}(i)
	}

	for {
		var tok *Token
		select {
		case <-stop:
			return
		case tok = <-q.tokenIn:
		}

		// An idle holder — no input here, nothing applied anywhere since it
		// last tried its waiting records — keeps the token until some pump
		// of this datacenter announces input, then passes it on if the
		// input is another queue's. Nothing circulates, and nothing is
		// retried, while there is nothing to do.
		drained := q.drainBuffered()
		for len(drained) == 0 && tok.NextLId == q.triedAt && q.state.pendingInput.Load() == 0 {
			select {
			case <-stop:
				return
			case <-q.state.inputWake:
			}
			drained = q.drainBuffered()
		}

		if len(drained) > 0 || tok.NextLId != q.triedAt {
			work := drained
			work = append(work, tok.Deferred...)
			work = append(work, q.parked...)
			tok.Deferred = nil
			q.parked = nil

			applied, leftover := q.apply(tok, work, outs, stop)
			if applied > 0 {
				q.Applied.Add(uint64(applied))
			}
			if q.carryDeferred {
				tok.Deferred = leftover
			} else {
				q.parked = leftover
			}
			q.triedAt = tok.NextLId
		}

		q.passes.Inc()
		select {
		case <-stop:
			return
		case q.nextChan() <- tok:
		}
	}
}

// pump moves records from the filter-facing inbox into the token-drainable
// buffer, charging the queue machine's capacity — concurrent with other
// queues and with this queue's own token work.
func (q *Queue) pump(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case recs := <-q.in:
			q.work(len(recs))
			// Counted before it is drainable, so a holder that finds the
			// count at zero has missed nothing, and woken after, so the
			// holder it wakes finds the batch.
			q.state.pendingInput.Add(1)
			select {
			case q.buffered <- recs:
				signal(q.state.inputWake)
			case <-stop:
				return
			}
		}
	}
}

// forward persists applied batches to one maintainer, off the token path.
func (q *Queue) forward(stop <-chan struct{}, maintainer int, in <-chan []*core.Record) {
	for {
		select {
		case <-stop:
			return
		case batch := <-in:
			if err := q.maintainers[maintainer].AppendAssigned(batch); err != nil {
				// A maintainer refusing an assigned record is a
				// deployment bug (wrong placement) or duplicate;
				// the record was already ordered, so fail loudly.
				panic("chariots: maintainer rejected assigned records: " + err.Error())
			}
		}
	}
}

// drainBuffered collects pumped records without blocking, bounded by
// maxDrain records per token cycle.
func (q *Queue) drainBuffered() []*core.Record {
	// Batches arriving on the channel are ownership transfers, so the
	// common single-batch cycle adopts the first slice outright instead
	// of copying into a fresh one.
	var out []*core.Record
	for len(out) < q.maxDrain {
		select {
		case recs := <-q.buffered:
			q.state.pendingInput.Add(-1)
			if out == nil {
				out = recs
			} else {
				out = append(out, recs...)
			}
		default:
			return out
		}
	}
	return out
}

// apply appends every applicable record (fixed-point over the work list),
// returns how many were applied and the records that must wait.
func (q *Queue) apply(tok *Token, work []*core.Record, outs []chan []*core.Record, stop <-chan struct{}) (int, []*core.Record) {
	if len(work) == 0 {
		return 0, nil
	}
	var appliedRecs []*core.Record
	pending := work
	for {
		progress := false
		var still []*core.Record
		for _, rec := range pending {
			if q.applicable(tok, rec) {
				q.applyOne(tok, rec)
				appliedRecs = append(appliedRecs, rec)
				progress = true
			} else if rec.TOId != 0 && rec.TOId <= tok.Applied.Get(rec.Host) {
				// Duplicate that slipped past a filter (e.g.
				// after a filter reassignment): drop for
				// exactly-once.
				continue
			} else {
				still = append(still, rec)
			}
		}
		pending = still
		if !progress {
			break
		}
	}
	if len(appliedRecs) > 0 {
		q.persist(appliedRecs, outs, stop)
	}
	return len(appliedRecs), pending
}

// applicable: fresh local records are always appendable (their dependencies
// are a subset of what this datacenter had applied when the client
// submitted them); external records need their host total order and their
// dependency vector satisfied.
func (q *Queue) applicable(tok *Token, rec *core.Record) bool {
	if rec.Host == q.state.self && rec.TOId == 0 {
		return true
	}
	if rec.TOId != tok.Applied.Get(rec.Host)+1 {
		return false
	}
	return tok.Applied.CoversDeps(rec.Deps)
}

// applyOne numbers and orders one record under the token.
func (q *Queue) applyOne(tok *Token, rec *core.Record) {
	if rec.Host == q.state.self && rec.TOId == 0 {
		rec.TOId = tok.Applied.Get(q.state.self) + 1
	}
	rec.LId = tok.NextLId
	tok.NextLId++
	tok.Applied.Set(rec.Host, rec.TOId)
}

// persist groups applied records per owning maintainer (the queues know
// the deterministic LId layout) and hands them to the forwarders, then
// updates the Awareness Table, releases acks, and feeds local records to
// the senders. Maintainers buffer slot gaps internally, so out-of-order
// arrival across queues' forwarders is safe.
func (q *Queue) persist(recs []*core.Record, outs []chan []*core.Record, stop <-chan struct{}) {
	// The pipe.queue span covers filter→queue transit, token wait, and LId
	// assignment. Hop before the forwarders and the sender feed see the
	// records — after this point rec.Trace is read-only.
	hopRecords(recs, "pipe.queue")
	groups := make(map[int][]*core.Record)
	for _, rec := range recs {
		owner := q.placement.Owner(rec.LId)
		groups[owner] = append(groups[owner], rec)
	}
	for owner, group := range groups {
		select {
		case outs[owner] <- group:
		case <-stop:
			return
		}
	}
	ring := q.state.applyTimes.Load()
	applied := 0
	for _, rec := range recs {
		q.state.atable.RecordApplied(rec.Host, rec.TOId)
		if rec.Host == q.state.self {
			applied++
			if ring != nil {
				ring.record(rec.TOId, time.Now().UnixNano())
			}
			q.state.fireAck(rec)
		}
	}
	if applied > 0 && q.state.feedEnabled {
		// One hand-off per token cycle. recs is this cycle's own slice, so
		// an all-local cycle — the common one — passes it on as it is.
		local := recs
		if applied < len(recs) {
			local = make([]*core.Record, 0, applied)
			for _, rec := range recs {
				if rec.Host == q.state.self {
					local = append(local, rec)
				}
			}
		}
		select {
		case q.state.localFeed <- local:
		case <-stop:
		}
	} else if applied < len(recs) {
		// Remote records moved the self row and no shipment of this
		// cycle's records will say so: have a sender ship the table.
		signal(q.state.tableChanged)
	}
	// Return pipeline credits for the local records now applied. Only local
	// records acquire credits (Inject charges them; receivers do not), and
	// every injected record reaches persist exactly once: filters pass
	// fresh local records through unconditionally and the queue's duplicate
	// drop only affects remote records — so the gate cannot leak.
	if applied > 0 && q.state.credits != nil {
		q.state.credits.release(applied)
	}
}
