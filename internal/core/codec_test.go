package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecord() *Record {
	return &Record{
		LId:  42,
		TOId: 7,
		Host: 3,
		Deps: []Dep{{DC: 0, TOId: 11}, {DC: 1, TOId: 0}},
		Tags: []Tag{{Key: "key", Value: "x"}, {Key: "idx", Value: "42"}},
		Body: []byte("payload bytes"),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	buf := MarshalRecord(r)
	if len(buf) != EncodedSize(r) {
		t.Errorf("EncodedSize = %d, marshal produced %d bytes", EncodedSize(r), len(buf))
	}
	got, used, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if used != len(buf) {
		t.Errorf("consumed %d of %d bytes", used, len(buf))
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordRoundTripMinimal(t *testing.T) {
	r := &Record{TOId: 1}
	got, _, err := DecodeRecord(MarshalRecord(r))
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, r)
	}
}

func TestDecodeRecordNoAlias(t *testing.T) {
	r := sampleRecord()
	buf := MarshalRecord(r)
	got, _, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if !bytes.Equal(got.Body, r.Body) {
		t.Error("decoded body aliases input buffer")
	}
	if got.Tags[0].Key != "key" {
		t.Error("decoded tag aliases input buffer")
	}
}

func TestDecodeRecordTruncated(t *testing.T) {
	full := MarshalRecord(sampleRecord())
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeRecord(full[:n]); err == nil {
			t.Fatalf("DecodeRecord accepted truncation to %d of %d bytes", n, len(full))
		}
	}
}

func TestRecordsBatchRoundTrip(t *testing.T) {
	recs := []*Record{sampleRecord(), {TOId: 2, Host: 1, Body: []byte("b")}, {TOId: 3}}
	buf := AppendRecords(nil, recs)
	got, used, err := DecodeRecords(buf)
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if used != len(buf) {
		t.Errorf("consumed %d of %d", used, len(buf))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("batch round trip mismatch")
	}
}

func TestRecordsBatchEmpty(t *testing.T) {
	buf := AppendRecords(nil, nil)
	got, _, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records, want 0", len(got))
	}
}

// quickRecord builds a pseudo-random well-formed record for property tests.
func quickRecord(rng *rand.Rand) *Record {
	r := &Record{
		LId:  rng.Uint64() % 1e9,
		TOId: 1 + rng.Uint64()%1e9,
		Host: DCID(rng.Intn(8)),
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		r.Deps = append(r.Deps, Dep{DC: DCID(i), TOId: rng.Uint64() % 1e6})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		key := make([]byte, 1+rng.Intn(12))
		val := make([]byte, rng.Intn(20))
		rng.Read(key)
		rng.Read(val)
		r.Tags = append(r.Tags, Tag{Key: string(key), Value: string(val)})
	}
	body := make([]byte, rng.Intn(600))
	rng.Read(body)
	if len(body) > 0 {
		r.Body = body
	}
	return r
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := quickRecord(rng)
		got, used, err := DecodeRecord(MarshalRecord(r))
		if err != nil || used != EncodedSize(r) {
			return false
		}
		return reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalRecord(b *testing.B) {
	r := sampleRecord()
	r.Body = make([]byte, 512)
	b.SetBytes(int64(EncodedSize(r)))
	b.ReportAllocs()
	buf := make([]byte, 0, EncodedSize(r))
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], r)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	r := sampleRecord()
	r.Body = make([]byte, 512)
	buf := MarshalRecord(r)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckEncodable walks each limit from its last good value to its first
// bad one. What the check accepts must survive the codec; what it refuses
// is what AppendRecord would write with the length truncated — the record
// the encoders alone turn into one no decoder reads back.
func TestCheckEncodable(t *testing.T) {
	long := func(n int) string { return string(make([]byte, n)) }
	cases := []struct {
		name     string
		rec      *Record
		ok       bool
		survives bool // the record codec reads back what it wrote
	}{
		{"plain", sampleRecord(), true, true},
		{"key at the limit", &Record{Tags: []Tag{{Key: long(65535), Value: "v"}}}, true, true},
		{"key over", &Record{Tags: []Tag{{Key: long(65536)}}}, false, false},
		{"value at the limit", &Record{Tags: []Tag{{Key: "k", Value: long(65535)}}}, true, true},
		// The record codec sizes a value with a u32; it is the posting that
		// carries it to an indexer behind a u16.
		{"value over", &Record{Tags: []Tag{{Key: "k", Value: long(70000)}}}, false, true},
		{"tags at the limit", &Record{Tags: make([]Tag, 65535)}, true, true},
		{"tags over", &Record{Tags: make([]Tag, 65536)}, false, false},
		{"deps at the limit", &Record{Deps: make([]Dep, 65535)}, true, true},
		{"deps over", &Record{Deps: make([]Dep, 65536)}, false, false},
	}
	for _, c := range cases {
		err := CheckEncodable([]*Record{sampleRecord(), c.rec})
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrUnencodable)) {
			t.Errorf("%s: CheckEncodable = %v, want ok=%v", c.name, err, c.ok)
		}
		dec, _, derr := DecodeRecord(MarshalRecord(c.rec))
		if survives := derr == nil && reflect.DeepEqual(normalize(dec), normalize(c.rec)); survives != c.survives {
			t.Errorf("%s: survives the codec = %v (%v), want %v", c.name, survives, derr, c.survives)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares contents.
func normalize(r *Record) *Record {
	c := *r
	if len(c.Deps) == 0 {
		c.Deps = nil
	}
	if len(c.Tags) == 0 {
		c.Tags = nil
	}
	if len(c.Body) == 0 {
		c.Body = nil
	}
	return &c
}
