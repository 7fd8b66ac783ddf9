// Package streamproc implements the multi-datacenter event-processing
// case study (§4.2): publishers append events to the Chariots log;
// partitioned reader groups consume them exactly once, without a
// centralized dispatcher, by each reading a different log maintainer and
// checkpointing progress back into the log itself.
package streamproc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
)

const (
	topicTagKey = "topic"
	ckptTagKey  = "streamproc-ckpt"
)

// Event is one decoded stream event.
type Event struct {
	Topic string
	// Origin is the datacenter whose application produced the event —
	// multi-datacenter joins (the Photon-style motivation) group on it.
	Origin  core.DCID
	LId     uint64
	Payload []byte
}

// Publisher appends events to the shared log. Publishing is exactly an
// Append — the log supplies persistence, replication and ordering.
type Publisher struct {
	dc *chariots.Datacenter
	// Published counts events appended.
	Published metrics.Counter
}

// NewPublisher returns a publisher over the datacenter.
func NewPublisher(dc *chariots.Datacenter) *Publisher { return &Publisher{dc: dc} }

// Publish appends one event without waiting for its log position.
func (p *Publisher) Publish(topic string, payload []byte) {
	p.dc.AppendAsync(payload, []core.Tag{{Key: topicTagKey, Value: topic}})
	p.Published.Inc()
}

// Handler processes one event. Returning an error stops the reader with
// that error; the event is not checkpointed and will be redelivered.
type Handler func(Event) error

// ReaderGroup consumes the log with one reader per log maintainer (§4.2:
// "readers can read from different log maintainers... without the need of
// a centralized dispatcher"). Progress is checkpointed as records appended
// to the log, so a restarted group resumes exactly after the last
// processed position of each partition — exactly-once processing of every
// event below the head of the log.
type ReaderGroup struct {
	name    string
	dc      *chariots.Datacenter
	handler Handler
	topics  map[string]bool // nil = all topics

	mu      sync.Mutex
	cursors []uint64 // per maintainer: highest processed LId
	stop    chan struct{}
	done    chan struct{}
	started bool
	err     error

	// Processed counts events handled; Skipped counts records that were
	// not subscribed events (other topics, checkpoints, foreign data).
	Processed metrics.Counter
	Skipped   metrics.Counter
}

// NewReaderGroup builds a reader group. topics restricts consumption (nil
// or empty = every topic). name namespaces the group's checkpoints.
func NewReaderGroup(name string, dc *chariots.Datacenter, handler Handler, topics ...string) *ReaderGroup {
	g := &ReaderGroup{
		name:    name,
		dc:      dc,
		handler: handler,
		cursors: make([]uint64, len(dc.Maintainers())),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if len(topics) > 0 {
		g.topics = make(map[string]bool, len(topics))
		for _, t := range topics {
			g.topics[t] = true
		}
	}
	return g
}

// Recover loads the group's checkpoints from the log, so a new instance
// resumes where a crashed one stopped.
func (g *ReaderGroup) Recover() error {
	recs, err := g.dc.Reader().Read(core.Rule{
		TagKey:   ckptTagKey,
		TagCmp:   core.CmpEQ,
		TagValue: g.name,
	})
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, rec := range recs {
		part, lid, ok := decodeCheckpoint(rec.Body)
		if !ok || part >= len(g.cursors) {
			continue
		}
		if lid > g.cursors[part] {
			g.cursors[part] = lid
		}
	}
	return nil
}

// Start launches one reader goroutine per maintainer partition.
func (g *ReaderGroup) Start() {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return
	}
	g.started = true
	g.mu.Unlock()
	var wg sync.WaitGroup
	for part := range g.cursors {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			g.readPartition(part)
		}(part)
	}
	go func() {
		wg.Wait()
		close(g.done)
	}()
}

// Stop halts the readers and waits for them.
func (g *ReaderGroup) Stop() {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
}

// Err returns the handler error that stopped the group, if any.
func (g *ReaderGroup) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// readPartition subscribes one partition to the log: it parks on the
// reader's head-advance long-poll (no fixed poll tick) and drains the
// partition's share of each newly covered window with one batched range
// read, processing subscribed events in LId order and checkpointing after
// each batch. Every owned position at or below the window's head is
// guaranteed delivered, so advancing the cursor to the head preserves
// exactly-once processing.
func (g *ReaderGroup) readPartition(part int) {
	reader := g.dc.Reader()
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		g.mu.Lock()
		cursor := g.cursors[part]
		g.mu.Unlock()
		// The bounded wait keeps Stop() responsive; a timed-out round
		// simply re-parks.
		head, err := reader.WaitHead(cursor+1, 5*time.Millisecond)
		if err != nil {
			g.fail(err)
			return
		}
		if head <= cursor {
			continue
		}
		recs, err := reader.ReadRangeOwned(part, cursor+1, head)
		if err != nil {
			g.fail(err)
			return
		}
		processedAny := false
		for _, rec := range recs {
			topic, ok := rec.TagValue(topicTagKey)
			if !ok || (g.topics != nil && !g.topics[topic]) {
				g.Skipped.Inc()
				continue
			}
			ev := Event{Topic: topic, Origin: rec.Host, LId: rec.LId, Payload: rec.Body}
			if err := g.handler(ev); err != nil {
				g.fail(fmt.Errorf("streamproc: handler at LId %d: %w", rec.LId, err))
				return
			}
			g.Processed.Inc()
			processedAny = true
		}
		g.mu.Lock()
		g.cursors[part] = head
		g.mu.Unlock()
		if processedAny {
			g.checkpoint(part, head)
		}
	}
}

func (g *ReaderGroup) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// checkpoint appends the partition's progress to the log. The checkpoint
// is itself a log record: replicated, persistent, and totally ordered
// after the events it covers.
func (g *ReaderGroup) checkpoint(part int, lid uint64) {
	g.dc.AppendAsync(encodeCheckpoint(part, lid),
		[]core.Tag{{Key: ckptTagKey, Value: g.name}})
}

func encodeCheckpoint(part int, lid uint64) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf, uint32(part))
	binary.LittleEndian.PutUint64(buf[4:], lid)
	return buf
}

func decodeCheckpoint(body []byte) (part int, lid uint64, ok bool) {
	if len(body) != 12 {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(body)), binary.LittleEndian.Uint64(body[4:]), true
}

// Join is a Photon-style continuous join (the paper's multi-datacenter
// motivation): it pairs events of two topics by a join key extracted from
// the payload, emitting a joined pair exactly once regardless of which
// datacenter produced each side.
type Join struct {
	mu      sync.Mutex
	keyOf   func(Event) string
	left    map[string]Event
	right   map[string]Event
	lTopic  string
	rTopic  string
	emit    func(key string, l, r Event)
	Matched metrics.Counter
}

// NewJoin builds a join of two topics on keyOf, calling emit per match.
func NewJoin(leftTopic, rightTopic string, keyOf func(Event) string, emit func(key string, l, r Event)) *Join {
	return &Join{
		keyOf:  keyOf,
		left:   make(map[string]Event),
		right:  make(map[string]Event),
		lTopic: leftTopic,
		rTopic: rightTopic,
		emit:   emit,
	}
}

// Handler returns the Handler to install in a ReaderGroup subscribed to
// both topics.
func (j *Join) Handler() Handler {
	return func(ev Event) error {
		key := j.keyOf(ev)
		j.mu.Lock()
		defer j.mu.Unlock()
		switch ev.Topic {
		case j.lTopic:
			if other, ok := j.right[key]; ok {
				delete(j.right, key)
				j.Matched.Inc()
				j.emit(key, ev, other)
			} else {
				j.left[key] = ev
			}
		case j.rTopic:
			if other, ok := j.left[key]; ok {
				delete(j.left, key)
				j.Matched.Inc()
				j.emit(key, other, ev)
			} else {
				j.right[key] = ev
			}
		}
		return nil
	}
}

// PendingLeft and PendingRight expose unmatched buffer sizes.
func (j *Join) PendingLeft() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.left)
}

// PendingRight returns the number of unmatched right-side events.
func (j *Join) PendingRight() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.right)
}
