package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/chariots"
)

// ackLog keeps, per record dc0 appended in the paced phase, when it was due,
// when dc0 acknowledged it, and when dc1's subscriber saw it. The appending
// session writes acks, the subscriber writes seen; they are read once both
// have stopped.
type ackLog struct {
	acks []ackEntry
	seen []seenEntry
}

type ackEntry struct {
	toid     uint64
	intended time.Time
	at       time.Time
}

type seenEntry struct {
	toid uint64
	at   time.Time
}

func (l *ackLog) acked(toid uint64, intended time.Time) {
	l.acks = append(l.acks, ackEntry{toid, intended, time.Now()})
}

func (l *ackLog) saw(toid uint64) { l.seen = append(l.seen, seenEntry{toid, time.Now()}) }

// hop is one snapshot's passage from dc0's sender to dc1's receiver: handed
// to the WAN link at shipped, out of the link at start, delivered at end.
type hop struct {
	maxTOId uint64 // highest TOId of dc0 the snapshot carries
	at      time.Time
}

// hopLog collects both ends of the dc0 -> dc1 hop in a traced run.
type hopLog struct {
	rec       *recorder
	mu        sync.Mutex
	shipped   []hop
	delivered []hop // at = when Deliver returned
	spans     *lane
}

func snapshotOf(snap chariots.Snapshot) (maxTOId uint64, n int) {
	for _, r := range snap.Records {
		if r.Host == 0 && r.TOId > maxTOId {
			maxTOId = r.TOId
		}
	}
	return maxTOId, len(snap.Records)
}

// shipWrap sits between dc0's sender and the WAN link.
type shipWrap struct {
	inner chariots.ReceiverAPI
	log   *hopLog
}

func (w *shipWrap) Deliver(snap chariots.Snapshot) error {
	if max, n := snapshotOf(snap); n > 0 && w.log.rec.on.Load() {
		w.log.mu.Lock()
		w.log.shipped = append(w.log.shipped, hop{max, time.Now()})
		w.log.mu.Unlock()
	}
	return w.inner.Deliver(snap)
}

// deliverWrap sits between the WAN link and the receiver client: its span
// covers the snapshot codec, the rpc and dc1's Receiver.Deliver.
type deliverWrap struct {
	inner chariots.ReceiverAPI
	log   *hopLog
}

func (w *deliverWrap) Deliver(snap chariots.Snapshot) error {
	max, n := snapshotOf(snap)
	if n == 0 || !w.log.rec.on.Load() {
		return w.inner.Deliver(snap)
	}
	start := w.log.rec.now()
	err := w.inner.Deliver(snap)
	end := w.log.rec.now()
	w.log.spans.add(span{Kind: kDeliver, Actor: -1, Node: 1, Key: max, Start: start, End: end, N: int32(n)})
	w.log.mu.Lock()
	w.log.delivered = append(w.log.delivered, hop{max, time.Now()})
	w.log.mu.Unlock()
	return err
}

// report splits the visibility delay of the paced phase's records along the
// hop: local ack -> handed to the link (sender batching) -> out of the link
// (the injected delay and any queueing in it) -> delivered (codec, rpc,
// receiver) -> visible to dc1's subscriber (batcher, filter, queue,
// maintainer, dependency parking).
func (h *hopLog) report(rc *runCtx, acks *ackLog) {
	h.mu.Lock()
	shipped, delivered := h.shipped, h.delivered
	h.mu.Unlock()
	seen := make(map[uint64]time.Time, len(acks.seen))
	for _, s := range acks.seen {
		seen[s.toid] = s.at
	}
	// The first snapshot at or past a TOId is the one that carried it:
	// dc0's records ship in TOId order. A TOId at or below the first
	// recorded snapshot's may have travelled before recording began, so the
	// snapshot before the carrier must be on record too.
	carrier := func(hops []hop, toid uint64) (hop, bool) {
		i := sort.Search(len(hops), func(i int) bool { return hops[i].maxTOId >= toid })
		if i == 0 || i == len(hops) {
			return hop{}, false
		}
		return hops[i], true
	}
	spanOf := map[uint64]int64{} // snapshot maxTOId -> deliver span duration
	var deliverUs, snapRecs []float64
	for _, s := range h.spans.spans {
		spanOf[s.Key] = s.dur()
		deliverUs = append(deliverUs, float64(s.dur())/1e3)
		snapRecs = append(snapRecs, float64(s.N))
	}
	var sendWait, link, apply, ackLat, sum, vis []float64
	for _, a := range acks.acks {
		sh, ok1 := carrier(shipped, a.toid)
		de, ok2 := carrier(delivered, a.toid)
		at, ok3 := seen[a.toid]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		d := time.Duration(spanOf[de.maxTOId])
		out := de.at.Add(-d) // when the snapshot left the link
		sendWait = append(sendWait, ms(sh.at.Sub(a.at)))
		link = append(link, ms(out.Sub(sh.at)))
		apply = append(apply, ms(at.Sub(de.at)))
		ackLat = append(ackLat, ms(a.at.Sub(a.intended)))
		vis = append(vis, ms(at.Sub(a.intended)))
		sum = append(sum, ms(a.at.Sub(a.intended))+ms(sh.at.Sub(a.at))+ms(out.Sub(sh.at))+ms(d)+ms(at.Sub(de.at)))
	}
	var storeAppend acc
	for _, s := range h.rec.collect() {
		if s.Kind == kStoreAppend {
			storeAppend.add(s.dur())
		}
	}
	rc.layer("chariots.store_append_us", "us", storeAppend.mean(), storeAppend.n())
	n := len(vis)
	rc.layer("chariots.send_wait_ms", "ms", mean(sendWait), n)
	rc.layer("chariots.link_ms", "ms", mean(link), n)
	rc.layer("chariots.deliver_us", "us", mean(deliverUs), len(deliverUs))
	rc.layer("chariots.snapshot_recs", "records", mean(snapRecs), len(snapRecs))
	rc.layer("chariots.remote_apply_ms", "ms", mean(apply), n)
	// The parts against the whole, for the traced records.
	rc.layer("chariots.layer_sum_ms", "ms", mean(sum), n)
	rc.layer("chariots.visibility_mean_ms", "ms", mean(vis), n)
	rc.note("chariots.ack_mean_ms", "ms", mean(ackLat), n)
}

// write puts the hop's spans in the workload's span file. The pipeline
// inside each datacenter has no seam the benchmark could wrap, so the file
// holds the deliver spans only; the per-record split is in the metrics.
func (h *hopLog) write(rc *runCtx) {
	ts := &traceSet{spans: h.rec.collect()}
	ts.self = selfTimes(ts.spans)
	ts.write(rc)
}
