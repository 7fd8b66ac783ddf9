package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/storage"
)

// readBackCount is how many acknowledged positions a run reads back and
// compares with what it appended there.
const readBackCount = 1000

// placed is one acknowledged record: where it went and what it was.
type placed struct {
	lid   uint64
	actor uint32
	seq   uint64
	idx   uint32
}

func placedOf(apps []*appender) []placed {
	var out []placed
	for _, a := range apps {
		for _, op := range a.acked {
			for i, lid := range op.lids {
				out = append(out, placed{lid, uint32(a.actor), op.seq, uint32(i)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lid < out[j].lid })
	return out
}

func (p placed) matches(r *core.Record) error {
	st, ok := readStamp(r.Body)
	switch {
	case r.LId != p.lid:
		return fmt.Errorf("asked for LId %d, got %d", p.lid, r.LId)
	case !ok:
		return fmt.Errorf("LId %d: bad checksum", p.lid)
	case st.actor != p.actor || st.seq != p.seq || st.idx != p.idx:
		return fmt.Errorf("LId %d holds (%d,%d,%d), appended (%d,%d,%d)", p.lid, st.actor, st.seq, st.idx, p.actor, p.seq, p.idx)
	}
	return nil
}

// checkLog checks what an FLStore run acknowledged against the log itself:
//
//   - every acknowledged LId was handed out once;
//   - the LIds of every range are exactly its first slots (post-assignment
//     leaves no hole inside a range), from which the head of the log
//     follows, and the client computes the same head;
//   - a seeded sample of positions reads back as what was appended there.
func checkLog(rc *runCtx, cl *flCluster, all []placed) {
	if len(all) == 0 {
		rc.violate("nothing was acknowledged")
		return
	}
	for i := 1; i < len(all); i++ {
		if all[i].lid == all[i-1].lid {
			rc.violate("LId %d acknowledged twice", all[i].lid)
			return
		}
	}
	p := cl.placement
	counts := make([]uint64, p.NumMaintainers)
	maxSlot := make([]uint64, p.NumMaintainers)
	for _, pl := range all {
		r := p.Owner(pl.lid)
		counts[r]++
		if s := p.SlotOf(pl.lid); s > maxSlot[r] {
			maxSlot[r] = s
		}
	}
	next := make([]uint64, p.NumMaintainers)
	for r := range counts {
		if counts[r] > 0 && maxSlot[r]+1 != counts[r] {
			rc.violate("range %d: %d records acknowledged but slots reach %d: a hole", r, counts[r], maxSlot[r])
		}
		next[r] = p.LIdOfSlot(r, counts[r])
	}
	want := flstore.Head(next)
	reader := cl.clients[len(cl.clients)-1]
	got, err := reader.HeadExact()
	if err != nil {
		rc.violate("HeadExact: %v", err)
	} else if got != want {
		rc.violate("head of the log is %d, acknowledged records give %d", got, want)
	}
	rc.note("check.acked_above_head", "records", float64(uint64(len(all))-want), len(all))

	rng := splitmix{state: rc.seed ^ 0xC0FFEE}
	for i := 0; i < readBackCount; i++ {
		pl := all[rng.intn(uint64(len(all)))]
		if pl.lid > want {
			continue // not readable until the gap below it closes
		}
		rec, err := reader.ReadLId(pl.lid)
		if err == nil {
			err = pl.matches(rec)
		}
		if err != nil {
			rc.violate("read-back: %v", err)
			return
		}
	}
	rc.attempted += readBackCount
}

// checkReopened reopens every store directory of a closed deployment and
// requires every acknowledged record, intact, on at least two of the three
// replicas: what majority acknowledgement with a durable store promises.
func checkReopened(rc *runCtx, cl *flCluster, all []placed) {
	copies := make([]uint8, len(all))
	for i := 0; i < flMaintainers; i++ {
		st, err := storage.OpenSegmentStore(cl.storeDir(i), storage.SegmentStoreOptions{Sync: cl.sync})
		if err != nil {
			rc.violate("reopening store %d: %v", i, err)
			return
		}
		err = st.Scan(1, 0, func(r *core.Record) bool {
			k := sort.Search(len(all), func(k int) bool { return all[k].lid >= r.LId })
			if k == len(all) || all[k].lid != r.LId {
				return true // a follower copy of an append that was not acknowledged
			}
			if err := all[k].matches(r); err != nil {
				rc.violate("store %d after reopen: %v", i, err)
				return false
			}
			copies[k]++
			return true
		})
		if err != nil {
			rc.violate("scanning reopened store %d: %v", i, err)
		}
		if err := st.Close(); err != nil {
			rc.violate("closing reopened store %d: %v", i, err)
		}
	}
	for k, c := range copies {
		if c < 2 {
			rc.violate("LId %d is on %d replicas after reopen, want at least 2", all[k].lid, c)
			return
		}
	}
}
