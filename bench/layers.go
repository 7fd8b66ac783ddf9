package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The isolations time one layer at a time, with the batches the workloads
// use and one caller, next to the traced self times of the same layers.
// They are measured, not modelled: the code under test is the program's
// own, with no limiter anywhere.

// isoTime is how long each isolation runs.
const isoTime = 150 * time.Millisecond

// timeOp runs fn in chunks for d and returns the median time of one call
// over the chunks, in nanoseconds.
func timeOp(d time.Duration, chunk int, fn func() error) (float64, int, error) {
	var per []float64
	begin := time.Now()
	for time.Since(begin) < d || len(per) < 3 {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, float64(time.Since(start))/float64(chunk))
	}
	return median(per), len(per) * chunk, nil
}

func isoBatch(seed uint64, n int) []*core.Record {
	return newBatch(0, 1, n, time.Unix(0, 0), filler(seed, recordBytes))
}

// reBatch returns fresh records over the bodies of recs: appends stamp LIds
// onto the records they are given, so a record is appended once, but making
// new bodies inside the timed call would time the harness.
func reBatch(recs []*core.Record) []*core.Record {
	out := make([]*core.Record, len(recs))
	for i, r := range recs {
		out[i] = &core.Record{Body: r.Body}
	}
	return out
}

// runIsolations reports every isolation as a per-layer metric.
func runIsolations(rc *runCtx) {
	defer runtime.GC() // the in-memory logs built here are not the workload's to carry
	small, big := isoBatch(rc.seed, pacedBatch), isoBatch(rc.seed, bulkBatch)
	iso := func(name, unit string, scale float64, chunk int, fn func() error) {
		v, n, err := timeOp(isoTime, chunk, fn)
		if err != nil {
			rc.violate("isolation %s: %v", name, err)
			return
		}
		rc.layer(name, unit, v/scale, n)
	}

	// core: encode and decode of a batch, per record.
	for _, b := range []struct {
		tag  string
		recs []*core.Record
	}{{"4", small}, {"64", big}} {
		recs := b.recs
		var enc core.BatchEncoder
		iso("core.encode_ns_per_rec."+b.tag, "ns", float64(len(recs)), 200, func() error {
			enc.Reset()
			enc.AddAll(recs)
			return nil
		})
		encoded := core.AppendRecords(nil, recs)
		iso("core.decode_ns_per_rec."+b.tag, "ns", float64(len(recs)), 200, func() error {
			_, _, err := core.DecodeRecordsShared(encoded)
			return err
		})
	}

	// wire: frame a small batch's payload and read it back.
	payload := core.AppendRecords(nil, small)
	var stream bytes.Buffer
	rd := wire.NewReader(&stream)
	var frame []byte
	iso("wire.frame_ns", "ns", 1, 200, func() error {
		frame = wire.Append(frame[:0], 1, 1, payload)
		stream.Write(frame)
		_, err := rd.Next()
		return err
	})

	// rpc: a handler that does nothing, over loopback TCP and in process.
	srv := rpc.NewServer()
	srv.Handle(1, func(p []byte) ([]byte, error) { return nil, nil })
	if addr, err := srv.Listen("127.0.0.1:0"); err != nil {
		rc.violate("isolation rpc: %v", err)
	} else if conn, err := rpc.Dial(addr.String()); err != nil {
		rc.violate("isolation rpc: %v", err)
	} else {
		iso("rpc.echo_tcp_us", "us", 1e3, 20, func() error {
			_, err := conn.Call(1, payload)
			return err
		})
		conn.Close()
	}
	local := rpc.NewLocalClient(srv)
	iso("rpc.echo_local_us", "us", 1e3, 200, func() error {
		_, err := local.Call(1, payload)
		return err
	})
	srv.Close()

	// storage: one caller appending small batches to a fresh store, per
	// sync policy. group minus each is the commit-window wait a lone
	// caller pays.
	var next uint64
	fresh := func() []*core.Record {
		recs := reBatch(small)
		for _, r := range recs {
			next++
			r.LId = next
		}
		return recs
	}
	for _, pol := range []struct {
		name string
		sync storage.SyncPolicy
	}{{"never", storage.SyncNever}, {"each", storage.SyncEachBatch}, {"group", storage.SyncGroupCommit}} {
		dir := filepath.Join(rc.workDir, "iso-"+pol.name)
		st, err := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{Sync: pol.sync})
		if err != nil {
			rc.violate("isolation storage: %v", err)
			continue
		}
		chunk := 5
		if pol.sync == storage.SyncNever {
			chunk = 100
		}
		iso("storage.iso_append_"+pol.name+"_us", "us", 1e3, chunk, func() error {
			return st.AppendBatch(fresh())
		})
		if err := st.Close(); err != nil {
			rc.violate("isolation storage: %v", err)
		}
		removeAll(dir)
	}

	// flstore and replica in process: one maintainer's Append, and a
	// session's Append over three in-process members, on in-memory stores.
	p := flstore.Placement{NumMaintainers: flMaintainers, BatchSize: placementRound}
	members := make([]replica.Member, flMaintainers)
	for i := range members {
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{Index: i, Placement: p, Replication: flReplication})
		if err != nil {
			rc.violate("isolation flstore: %v", err)
			return
		}
		members[i] = m
	}
	solo, err := flstore.NewMaintainer(flstore.MaintainerConfig{Index: 0, Placement: flstore.Placement{NumMaintainers: 1, BatchSize: placementRound}})
	if err != nil {
		rc.violate("isolation flstore: %v", err)
		return
	}
	iso("flstore.iso_maintainer_append_us", "us", 1e3, 100, func() error {
		_, err := solo.Append(reBatch(small))
		return err
	})
	sess, err := replica.NewSession(members, replica.SessionConfig{
		Layout: replica.Layout{N: flMaintainers, R: flReplication}, Ack: replica.AckMajority,
		Owner: func(lid uint64) int { return p.Owner(lid) },
	})
	if err != nil {
		rc.violate("isolation replica: %v", err)
		return
	}
	iso("replica.iso_session_append_us", "us", 1e3, 100, func() error {
		_, err := sess.Append(reBatch(small))
		return err
	})
}

// printLayerLedger prints the isolations beside the traced self times of
// the same layers: the per-layer ledger, every row measured.
func printLayerLedger(rc *runCtx) {
	rows := []struct{ layer, isolated, traced string }{
		{"core codec (4x512 B, per record)", "core.encode_ns_per_rec.4", ""},
		{"core codec decode (4x512 B, per record)", "core.decode_ns_per_rec.4", ""},
		{"wire frame", "wire.frame_ns", ""},
		{"rpc round trip, TCP", "rpc.echo_tcp_us", "rpc.call_self_us"},
		{"rpc round trip, in process", "rpc.echo_local_us", ""},
		{"storage append, fsync never", "storage.iso_append_never_us", "storage.append_us"},
		{"storage append, fsync each", "storage.iso_append_each_us", ""},
		{"storage append, fsync group", "storage.iso_append_group_us", ""},
		{"maintainer append, in process", "flstore.iso_maintainer_append_us", "flstore.ingest_self_us"},
		{"session append, in-process members", "replica.iso_session_append_us", "trace.append_mean_us"},
	}
	fmt.Fprintln(os.Stdout, "-- per-layer ledger (measured): isolated, one caller | traced in this workload")
	for _, r := range rows {
		iso, ok := rc.metrics[r.isolated]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-42s %12.2f %-3s", r.layer, iso.Value, iso.Unit)
		if t, ok := rc.metrics[r.traced]; ok && t.n > 0 {
			line += fmt.Sprintf(" | %-24s %10.2f %s", r.traced, t.Value, t.Unit)
		}
		fmt.Fprintln(os.Stdout, line)
	}
}
