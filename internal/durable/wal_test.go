package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"identitybox/internal/vfs"
)

func sampleRecords() []Record {
	return []Record{
		{Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: "/work", Mode: 0o755, Owner: "chirp"}},
		{Type: uint8(vfs.MutCreate), Mut: vfs.Mutation{Op: vfs.MutCreate, Path: "/work/f", Mode: 0o644, Owner: "chirp"}},
		{Type: uint8(vfs.MutWrite), Mut: vfs.Mutation{Op: vfs.MutWrite, Path: "/work/f", Off: 3, Data: []byte("hello wal")}},
		{Type: uint8(vfs.MutTruncate), Mut: vfs.Mutation{Op: vfs.MutTruncate, Path: "/work/f", Size: 4}},
		{Type: uint8(vfs.MutRename), Mut: vfs.Mutation{Op: vfs.MutRename, Path: "/work/f", Path2: "/work/g"}},
		{Type: uint8(vfs.MutChown), Mut: vfs.Mutation{Op: vfs.MutChown, Path: "/work/g", Owner: "alice", Group: "grid"}},
		{Type: DedupeType, DedupeKey: "unix:alice\x00tok-1", DedupeReply: []string{"ok", "0", "1.5"}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var log []byte
	recs := sampleRecords()
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
		log = EncodeRecord(log, recs[i])
	}
	got, valid, torn := DecodeAll(log)
	if torn {
		t.Fatal("clean log reported torn")
	}
	if valid != int64(len(log)) {
		t.Fatalf("validBytes = %d, want %d", valid, len(log))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		want := recs[i]
		if rec.LSN != want.LSN || rec.Type != want.Type {
			t.Errorf("record %d header = (%d,%d), want (%d,%d)", i, rec.LSN, rec.Type, want.LSN, want.Type)
		}
		if rec.IsMutation() {
			if rec.Mut.Path != want.Mut.Path || rec.Mut.Path2 != want.Mut.Path2 ||
				rec.Mut.Mode != want.Mut.Mode || rec.Mut.Owner != want.Mut.Owner ||
				rec.Mut.Group != want.Mut.Group || rec.Mut.Off != want.Mut.Off ||
				rec.Mut.Size != want.Mut.Size || !bytes.Equal(rec.Mut.Data, want.Mut.Data) {
				t.Errorf("record %d = %+v, want %+v", i, rec.Mut, want.Mut)
			}
		} else {
			if rec.DedupeKey != want.DedupeKey || len(rec.DedupeReply) != len(want.DedupeReply) {
				t.Errorf("record %d dedupe = %+v, want %+v", i, rec, want)
			}
		}
	}
}

// TestTornTailTruncation cuts a valid log at every byte offset and
// checks the decoder always yields an exact record-prefix, never a
// partial or corrupt record.
func TestTornTailTruncation(t *testing.T) {
	var log []byte
	var ends []int64 // byte offset of each record's end
	recs := sampleRecords()
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
		log = EncodeRecord(log, recs[i])
		ends = append(ends, int64(len(log)))
	}
	for cut := 0; cut <= len(log); cut++ {
		got, valid, torn := DecodeAll(log[:cut])
		// The decode must stop exactly at the last record boundary <= cut.
		wantRecs := 0
		var wantValid int64
		for i, e := range ends {
			if e <= int64(cut) {
				wantRecs = i + 1
				wantValid = e
			}
		}
		if len(got) != wantRecs || valid != wantValid {
			t.Fatalf("cut %d: decoded %d records to offset %d, want %d to %d",
				cut, len(got), valid, wantRecs, wantValid)
		}
		wantTorn := int64(cut) != wantValid
		if torn != wantTorn {
			t.Fatalf("cut %d: torn = %v, want %v", cut, torn, wantTorn)
		}
	}
}

// TestCorruptRecordRejected flips one byte in each record's body and
// checks the checksum catches it (truncating the log there).
func TestCorruptRecordRejected(t *testing.T) {
	rec := Record{LSN: 1, Type: uint8(vfs.MutWrite),
		Mut: vfs.Mutation{Op: vfs.MutWrite, Path: "/f", Data: []byte("payload")}}
	clean := EncodeRecord(nil, rec)
	for i := frameHeaderLen; i < len(clean); i++ {
		bad := append([]byte(nil), clean...)
		bad[i] ^= 0x40
		if _, _, err := DecodeRecord(bad); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		} else if !errors.Is(err, ErrTorn) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrTorn", i, err)
		}
	}
}

func TestUnknownVersionAndTypeRejected(t *testing.T) {
	body := []byte{recVersion + 1, uint8(vfs.MutMkdir), 1}
	frame := frameBody(body)
	if _, _, err := DecodeRecord(frame); !errors.Is(err, ErrTorn) {
		t.Fatalf("future version accepted: %v", err)
	}
	body = []byte{recVersion, 200, 1}
	frame = frameBody(body)
	if _, _, err := DecodeRecord(frame); !errors.Is(err, ErrTorn) {
		t.Fatalf("unknown type accepted: %v", err)
	}
}

// frameBody wraps a raw body with a valid length+checksum header.
func frameBody(body []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	return append(hdr[:], body...)
}

func TestOversizedLengthPrefixRejected(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxBodyLen+1)
	if _, _, err := DecodeRecord(hdr[:]); !errors.Is(err, ErrTorn) {
		t.Fatalf("oversized length accepted: %v", err)
	}
}

// newTestWAL wraps f as a one-file shard WAL with its own LSN
// allocator and a rotation limit no test reaches. It is a follower's
// log until the test calls StartGroupCommit.
func newTestWAL(f File) *WAL {
	return newShardWAL(f, new(atomic.Uint64), 1, &rotator{limit: math.MaxInt64})
}

func TestWALAppendAssignsLSNsAndSyncs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	f, err := defaultOpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWAL(f)
	mk := Record{Type: uint8(vfs.MutMkdir),
		Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: "/d", Mode: 0o755, Owner: "o"}}
	if _, err := w.Append(mk); !errors.Is(err, errNoCommitter) {
		t.Fatalf("append with no committer = %v, want errNoCommitter", err)
	}
	var syncs atomic.Int64
	w.onSync = func() { syncs.Add(1) }
	w.StartGroupCommit(GroupConfig{})
	for i := 0; i < 5; i++ {
		lsn, err := w.Append(mk)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		// Waiting out each record makes it a group of its own.
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncs.Load(); got != 5 {
		t.Fatalf("syncs = %d, want 5 (policy: every group)", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := DecodeAll(data)
	if torn || len(recs) != 5 {
		t.Fatalf("decoded %d records (torn=%v), want 5 clean", len(recs), torn)
	}
	if recs[4].LSN != 5 {
		t.Fatalf("last lsn = %d, want 5", recs[4].LSN)
	}
}

// failingFile fails writes after a threshold, to exercise sticky errors.
type failingFile struct {
	writes    int
	failAfter int
}

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.failAfter {
		return 0, errors.New("disk gone")
	}
	return len(p), nil
}
func (f *failingFile) Sync() error  { return nil }
func (f *failingFile) Close() error { return nil }

func TestWALStickyError(t *testing.T) {
	w := newTestWAL(&failingFile{failAfter: 2})
	w.StartGroupCommit(GroupConfig{})
	defer w.Close()
	mk := Record{Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: "/d"}}
	// One group per record, so the third record is the third write.
	commit := func() error {
		lsn, err := w.Append(mk)
		if err != nil {
			return err
		}
		return w.WaitDurable(lsn)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	if err := commit(); err == nil {
		t.Fatal("commit past the failure succeeded")
	}
	if w.Err() == nil {
		t.Fatal("sticky error not reported")
	}
	if _, err := w.Append(mk); err == nil {
		t.Fatal("append after sticky error succeeded")
	}
}
