package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Index: 1, Key: "0,1,2,3", Sig: "A=fp;o3=x;", Attempts: 1},
		{Index: 2, Key: "0,1,3,2", Subsumed: true},
		{Index: 3, Key: "0,2,1,3", Error: "finalize: replica B crashed", Attempts: 3},
		{Index: 70000, Key: "3,2,1,0", Sig: "", Attempts: 1, Violations: []Violation{
			{Index: 70000, Key: "3,2,1,0", Assertion: "converges", Error: "replicas diverged"},
			{Index: 70000, Key: "3,2,1,0", Assertion: "no-lost-update", Error: ""},
		}},
	}
}

// TestResultRecordRoundTrip: records are faithful and canonical, back to
// back in one buffer as a flushed batch lays them out.
func TestResultRecordRoundTrip(t *testing.T) {
	var log []byte
	for i := range sampleRecords() {
		log = appendRecord(log, &sampleRecords()[i])
	}
	var again []byte
	rest := log
	for i, want := range sampleRecords() {
		got, n, err := readRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d came back as %+v, want %+v", i, got, want)
		}
		again = appendRecord(again, &got)
		rest = rest[n:]
	}
	if len(rest) != 0 || !bytes.Equal(again, log) {
		t.Fatalf("encode → decode → encode is not byte-identical (%d bytes left)", len(rest))
	}
}

// TestResultLogTail: a read ends at the first record that fails its check
// — torn anywhere inside the last record, or with any one bit flipped —
// keeps every record before it, and reports where the valid bytes end so
// the log reopens there.
func TestResultLogTail(t *testing.T) {
	recs := sampleRecords()
	var log []byte
	var ends []int
	for i := range recs {
		log = appendRecord(log, &recs[i])
		ends = append(ends, len(log))
	}
	lastStart := ends[len(ends)-2]
	d := openDir(t)
	if got, valid := d.decode(log); !reflect.DeepEqual(got, recs) || valid != len(log) {
		t.Fatalf("intact log read as %d records, %d valid bytes", len(got), valid)
	}
	for n := lastStart; n < len(log); n++ {
		got, valid := d.decode(log[:n])
		if !reflect.DeepEqual(got, recs[:len(recs)-1]) || valid != lastStart {
			t.Fatalf("log torn at byte %d read %d records, %d valid bytes; want %d and %d", n, len(got), valid, len(recs)-1, lastStart)
		}
	}
	for bit := lastStart * 8; bit < len(log)*8; bit++ {
		flipped := bytes.Clone(log)
		flipped[bit/8] ^= 1 << (bit % 8)
		got, valid := d.decode(flipped)
		if !reflect.DeepEqual(got, recs[:len(recs)-1]) || valid != lastStart {
			t.Fatalf("bit %d of the last record flipped: read %d records, %d valid bytes", bit-lastStart*8, len(got), valid)
		}
	}
	// A flip in the first record ends the read before it: everything after
	// a failed check counts as never written.
	flipped := bytes.Clone(log)
	flipped[recordHeader+1] ^= 0x10
	if got, valid := d.decode(flipped); len(got) != 0 || valid != 0 {
		t.Fatalf("first record corrupt: read %d records, %d valid bytes", len(got), valid)
	}

	// Reopening truncates to the valid prefix, so a record appended after a
	// torn tail is read back.
	if err := os.WriteFile(filepath.Join(d.Path(), recordLogName), log[:len(log)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(&recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Records(); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("after reopening past a torn tail: %d records, %v", len(got), err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResultRecordStrictness: a payload that passes its checksum must
// still be exactly one canonical record.
func TestResultRecordStrictness(t *testing.T) {
	seal := func(payload []byte) []byte {
		b := make([]byte, recordHeader, recordHeader+len(payload))
		b = append(b, payload...)
		binary.LittleEndian.PutUint32(b, uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
		return b
	}
	good := appendRecord(nil, &sampleRecords()[0])[recordHeader:]
	cases := map[string][]byte{
		"trailing byte":          append(bytes.Clone(good), 0),
		"unknown kind":           {1, 1, '0', 3, 0, 0},
		"no key":                 {1, 0, 1, 0, 0},
		"quarantine, no error":   {1, 1, '0', 2, 0, 0, 0},
		"violation count beyond": {1, 1, '0', 1, 0, 9},
		"empty payload":          {},
	}
	for name, payload := range cases {
		if l, _, err := readRecord(seal(payload)); err == nil {
			t.Errorf("%s: accepted as %+v", name, l)
		}
	}
	if _, _, err := readRecord(seal(good)); err != nil {
		t.Fatalf("the control record is rejected: %v", err)
	}
}
