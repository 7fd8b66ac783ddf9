// Package msgfutures implements the Message Futures commit protocol
// (§4.3, Nawab et al. CIDR'13) on top of Chariots: strongly consistent
// (serializable) multi-key transactions on geo-replicated data, using the
// causally ordered replicated log as the only communication medium.
//
// A transaction executes optimistically: reads go to the local committed
// state, writes are buffered. Commit appends the transaction's read and
// write sets to the log and then waits until every other datacenter's
// history is known to cover the transaction — the awareness table entry
// T[j][self] reaching the transaction's TOId proves datacenter j has seen
// it, and by causal transitivity everything j appended *before* seeing it
// has arrived here. At that point the set of transactions concurrent with
// ours is complete and fixed, and a deterministic conflict rule — shared
// by every datacenter — decides commit or abort identically everywhere,
// with no extra coordination round.
package msgfutures

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
)

const txnTag = "msgfutures-txn"

// commitRetries bounds how many shed rejections (the datacenter's
// admission control under Config.ShedOnSaturation) Commit absorbs before
// surfacing the error; waits honor the server's retry hint.
const commitRetries = 8

// ErrAborted is returned by Commit when the transaction lost a conflict.
var ErrAborted = errors.New("msgfutures: transaction aborted")

// ErrTimeout is returned when remote histories do not arrive in time
// (e.g. a partitioned datacenter — strong consistency gives up
// availability, exactly the CAP trade the paper discusses).
var ErrTimeout = errors.New("msgfutures: commit timed out waiting for remote histories")

// TxnRecord is the payload of a transaction's log record.
type TxnRecord struct {
	Reads  []string
	Writes []KV
}

// KV is one buffered write.
type KV struct {
	Key   string
	Value string
}

// Manager is the per-datacenter transaction manager. It applies committed
// transactions from the log to its key-value state in log order, deciding
// each transaction's fate with the deterministic conflict rule.
type Manager struct {
	dc *chariots.Datacenter

	mu    sync.Mutex
	state map[string]string
	// applied are all transaction records seen so far, by LId order.
	applied []*txnEntry
	cursor  uint64 // highest LId folded into state

	// CommitWaitTimeout bounds how long Commit waits for remote
	// histories (default 30s).
	CommitWaitTimeout time.Duration

	// Committed and Aborted count transaction outcomes at this replica.
	Committed metrics.Counter
	Aborted   metrics.Counter

	stop chan struct{}
	done chan struct{}
}

type txnEntry struct {
	rec  *core.Record
	txn  TxnRecord
	fate fate
	// consumed marks a local transaction whose fate was delivered to its
	// committer; only then may pruning drop it (Commit polls fateOf).
	consumed bool
}

type fate int

const (
	fateUnknown fate = iota
	fateCommitted
	fateAborted
)

// NewManager returns a transaction manager over a running datacenter and
// starts its log-application loop.
func NewManager(dc *chariots.Datacenter) *Manager {
	m := &Manager{
		dc:                dc,
		state:             make(map[string]string),
		CommitWaitTimeout: 30 * time.Second,
		stop:              make(chan struct{}),
		done:              make(chan struct{}),
	}
	go m.applyLoop()
	return m
}

// Stop halts the application loop.
func (m *Manager) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

// applyLoop folds new log records into the manager's transaction list.
func (m *Manager) applyLoop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-time.After(300 * time.Microsecond):
		}
		m.poll()
	}
}

// poll scans the log past the cursor and ingests transaction records.
func (m *Manager) poll() {
	head, err := m.dc.Head()
	if err != nil {
		return
	}
	m.mu.Lock()
	cursor := m.cursor
	m.mu.Unlock()
	if head <= cursor {
		// No new records, but decidability can still change: the
		// awareness table advances on table-only shipments too.
		m.mu.Lock()
		m.decideLocked()
		m.mu.Unlock()
		return
	}
	// One scatter-gather range read replaces the per-maintainer window
	// scans; the result is already in LId order (merged by placement).
	recs, err := m.dc.Reader().ReadRange(cursor+1, head)
	if err != nil {
		return
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		if rec.LId <= m.cursor {
			continue
		}
		m.cursor = rec.LId
		if !rec.HasTag(txnTag) {
			continue
		}
		txn, err := decodeTxn(rec.Body)
		if err != nil {
			continue
		}
		m.applied = append(m.applied, &txnEntry{rec: rec, txn: txn})
	}
	m.decideLocked()
	m.pruneLocked()
}

// pruneLocked drops decided transactions that every datacenter is known to
// have seen (the log's own GC rule): any future record's dependency vector
// will cover them, so they can never again be concurrent with — and thus
// never conflict with — a new transaction. This bounds the manager's
// memory the same way §6.1 bounds the log's. Caller holds mu.
func (m *Manager) pruneLocked() {
	frontier := m.dc.ATable().GCFrontier()
	self := m.dc.Self()
	keep := m.applied[:0]
	for _, e := range m.applied {
		droppable := e.fate != fateUnknown && frontier.Get(e.rec.Host) >= e.rec.TOId
		if e.rec.Host == self && !e.consumed {
			// A local committer may still be waiting on this fate.
			droppable = false
		}
		if droppable {
			continue
		}
		keep = append(keep, e)
	}
	// Zero the tail so dropped entries are collectable.
	for i := len(keep); i < len(m.applied); i++ {
		m.applied[i] = nil
	}
	m.applied = keep
}

// PendingTxns returns how many transaction records the manager retains
// (introspection; bounded by the awareness frontier).
func (m *Manager) PendingTxns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.applied)
}

// decidableLocked reports whether e's concurrent set is complete here:
// every datacenter is known to have seen e (T[j][host(e)] >= TOId(e)).
func (m *Manager) decidableLocked(e *txnEntry) bool {
	at := m.dc.ATable()
	for j := 0; j < at.N(); j++ {
		if at.Get(core.DCID(j), e.rec.Host) < e.rec.TOId {
			return false
		}
	}
	return true
}

// concurrent reports whether two transaction records are causally
// concurrent: neither's dependency vector covers the other.
func concurrent(a, b *core.Record) bool {
	if a.Host == b.Host {
		return false // same host: totally ordered
	}
	aSawB := a.DepOn(b.Host) >= b.TOId
	bSawA := b.DepOn(a.Host) >= a.TOId
	return !aSawB && !bSawA
}

// conflicts reports whether two transactions have intersecting write-write
// or read-write sets.
func conflicts(a, b TxnRecord) bool {
	aw := make(map[string]bool, len(a.Writes))
	for _, w := range a.Writes {
		aw[w.Key] = true
	}
	for _, w := range b.Writes {
		if aw[w.Key] {
			return true // WW
		}
	}
	for _, r := range b.Reads {
		if aw[r] {
			return true // A writes what B read
		}
	}
	bw := make(map[string]bool, len(b.Writes))
	for _, w := range b.Writes {
		bw[w.Key] = true
	}
	for _, r := range a.Reads {
		if bw[r] {
			return true // B writes what A read
		}
	}
	return false
}

// precedes is the deterministic tiebreak among concurrent conflicting
// transactions: lower (TOId, Host) wins. Identical at every datacenter.
func precedes(a, b *core.Record) bool {
	if a.TOId != b.TOId {
		return a.TOId < b.TOId
	}
	return a.Host < b.Host
}

// decideLocked fixes the fate of every decidable transaction in LId order
// and folds committed writes into the state. Caller holds mu.
func (m *Manager) decideLocked() {
	for _, e := range m.applied {
		if e.fate != fateUnknown {
			continue
		}
		if !m.decidableLocked(e) {
			// Later entries may still be decidable, but state must
			// fold in LId order; stop here.
			return
		}
		e.fate = fateCommitted
		for _, other := range m.applied {
			if other == e {
				continue
			}
			if !concurrent(e.rec, other.rec) {
				continue
			}
			if !conflicts(e.txn, other.txn) {
				continue
			}
			if precedes(other.rec, e.rec) {
				e.fate = fateAborted
				break
			}
		}
		if e.fate == fateCommitted {
			m.Committed.Inc()
			for _, w := range e.txn.Writes {
				m.state[w.Key] = w.Value
			}
		} else {
			m.Aborted.Inc()
		}
	}
}

// fateOf returns the decided fate of the transaction record, if decided,
// marking it consumed so pruning may drop it.
func (m *Manager) fateOf(host core.DCID, toid uint64) fate {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.applied {
		if e.rec.Host == host && e.rec.TOId == toid {
			if e.fate != fateUnknown {
				e.consumed = true
			}
			return e.fate
		}
	}
	return fateUnknown
}

// ReadCommitted returns the committed value of key at this replica.
func (m *Manager) ReadCommitted(key string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.state[key]
	return v, ok
}

// Txn is one optimistic transaction.
type Txn struct {
	m      *Manager
	reads  []string
	writes []KV
	rmap   map[string]bool
	wmap   map[string]string
	done   bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	return &Txn{m: m, rmap: make(map[string]bool), wmap: make(map[string]string)}
}

// Read reads a key (from the transaction's own writes, else the committed
// state) and records it in the read set.
func (t *Txn) Read(key string) (string, bool) {
	if v, ok := t.wmap[key]; ok {
		return v, true
	}
	if !t.rmap[key] {
		t.rmap[key] = true
		t.reads = append(t.reads, key)
	}
	return t.m.ReadCommitted(key)
}

// Write buffers a write.
func (t *Txn) Write(key, value string) {
	if _, ok := t.wmap[key]; !ok {
		t.writes = append(t.writes, KV{Key: key, Value: value})
	} else {
		for i := range t.writes {
			if t.writes[i].Key == key {
				t.writes[i].Value = value
			}
		}
	}
	t.wmap[key] = value
}

// Commit runs the Message Futures protocol: append the transaction to the
// log, wait until every datacenter has provably seen it (its concurrent
// set is then complete everywhere), and return the deterministic verdict.
func (t *Txn) Commit() error {
	if t.done {
		return errors.New("msgfutures: transaction already finished")
	}
	t.done = true
	if len(t.writes) == 0 {
		return nil // read-only transactions commit locally (snapshot reads)
	}
	body := encodeTxn(TxnRecord{Reads: t.reads, Writes: t.writes})
	// A shed rejection (datacenter admission control) is not a verdict on
	// the transaction — it never reached the log — so retry it paced.
	ack, err := flstore.Retry(commitRetries, func() (chariots.AppendAck, error) {
		return t.m.dc.Append(body, []core.Tag{{Key: txnTag, Value: "1"}})
	})
	if err != nil {
		return err
	}
	self := t.m.dc.Self()
	deadline := time.Now().Add(t.m.CommitWaitTimeout)
	for {
		// Wait for global visibility of our record...
		at := t.m.dc.ATable()
		visible := true
		for j := 0; j < at.N(); j++ {
			if at.Get(core.DCID(j), self) < ack.TOId {
				visible = false
				break
			}
		}
		if visible {
			// ...then for the local manager to decide it.
			t.m.poll()
			switch t.m.fateOf(self, ack.TOId) {
			case fateCommitted:
				return nil
			case fateAborted:
				return fmt.Errorf("%w: conflict at <%s,%d>", ErrAborted, self, ack.TOId)
			}
		}
		if time.Now().After(deadline) {
			return ErrTimeout
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// --- codec ---

func encodeTxn(txn TxnRecord) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(txn.Reads)))
	for _, r := range txn.Reads {
		buf = appendString(buf, r)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(txn.Writes)))
	for _, w := range txn.Writes {
		buf = appendString(buf, w.Key)
		buf = appendString(buf, w.Value)
	}
	return buf
}

func decodeTxn(body []byte) (TxnRecord, error) {
	var txn TxnRecord
	off := 0
	readString := func() (string, error) {
		if len(body) < off+2 {
			return "", errors.New("msgfutures: short txn record")
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if len(body) < off+n {
			return "", errors.New("msgfutures: short txn string")
		}
		s := string(body[off : off+n])
		off += n
		return s, nil
	}
	if len(body) < 4 {
		return txn, errors.New("msgfutures: short txn record")
	}
	nr := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < nr; i++ {
		s, err := readString()
		if err != nil {
			return txn, err
		}
		txn.Reads = append(txn.Reads, s)
	}
	if len(body) < off+4 {
		return txn, errors.New("msgfutures: short txn writes")
	}
	nw := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < nw; i++ {
		k, err := readString()
		if err != nil {
			return txn, err
		}
		v, err := readString()
		if err != nil {
			return txn, err
		}
		txn.Writes = append(txn.Writes, KV{Key: k, Value: v})
	}
	return txn, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}
