package main

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"repro/internal/core"
)

// Every record the benchmark appends carries a header saying who appended
// it, as which operation, and when it was due, followed by seeded filler
// and covered by a checksum, so any copy read back from any place can be
// checked without a side table.
const (
	bodyMagic  = 0x4e424843 // "CHBN"
	bodyHeader = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// splitmix is the seeded stream every generated input comes from.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n uint64) uint64 { return r.next() % n }

// filler returns size seeded bytes; bodies copy it behind their header.
func filler(seed uint64, size int) []byte {
	r := splitmix{state: seed}
	b := make([]byte, size+8)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
	return b[:size]
}

type stamp struct {
	actor    uint32
	seq      uint64
	idx      uint32
	intended int64 // unix ns
}

func bodySum(b []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, b[:28]), castagnoli, b[bodyHeader:])
}

// newBody allocates a body of len(fill) bytes stamped with s.
func newBody(s stamp, fill []byte) []byte {
	b := make([]byte, len(fill))
	copy(b[bodyHeader:], fill[bodyHeader:])
	binary.LittleEndian.PutUint32(b[0:], bodyMagic)
	binary.LittleEndian.PutUint32(b[4:], s.actor)
	binary.LittleEndian.PutUint64(b[8:], s.seq)
	binary.LittleEndian.PutUint32(b[16:], s.idx)
	binary.LittleEndian.PutUint64(b[20:], uint64(s.intended))
	binary.LittleEndian.PutUint32(b[28:], bodySum(b))
	return b
}

// readStamp checks a body's checksum and returns its header.
func readStamp(b []byte) (stamp, bool) {
	if len(b) < bodyHeader || binary.LittleEndian.Uint32(b) != bodyMagic ||
		binary.LittleEndian.Uint32(b[28:]) != bodySum(b) {
		return stamp{}, false
	}
	return stamp{
		actor:    binary.LittleEndian.Uint32(b[4:]),
		seq:      binary.LittleEndian.Uint64(b[8:]),
		idx:      binary.LittleEndian.Uint32(b[16:]),
		intended: int64(binary.LittleEndian.Uint64(b[20:])),
	}, true
}

// newBatch builds one append of n fresh records. Records are never reused:
// the client stamps LIds onto them and a fan-out may still be encoding them
// after the append returned.
func newBatch(actor uint32, seq uint64, n int, intended time.Time, fill []byte) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{Body: newBody(stamp{actor, seq, uint32(i), intended.UnixNano()}, fill)}
	}
	return recs
}
