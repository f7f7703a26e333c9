package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplaySegment feeds arbitrary bytes to the WAL's one reader as the
// log's only segment: replay never panics, delivers strictly increasing
// sequences, and fails only with ErrCorrupt or an I/O error; the valid
// frames and the torn tail it reports cover the file; and once Open has
// truncated that tail, a second Open replays the same records with none.
// `go test` runs the seeds; `go test -fuzz=FuzzReplaySegment
// ./internal/ingest` explores.
func FuzzReplaySegment(f *testing.F) {
	var seg []byte
	for seq := uint64(1); seq <= 3; seq++ {
		seg = appendFrame(seg, Record{Seq: seq, Src: uint32(seq), Dst: uint32(seq + 1), Weight: 1})
	}
	frame := frameHeader + recordSize
	f.Add(seg)
	for _, cut := range []int{0, 3, frameHeader, frame, frame + frameHeader + 5, len(seg) - 1} {
		f.Add(seg[:cut])
	}
	flipped := bytes.Clone(seg)
	flipped[frame+4] ^= 1 // the second frame's CRC
	f.Add(flipped)
	forged := bytes.Clone(seg)
	binary.LittleEndian.PutUint32(forged[frame:], 1<<31) // the second frame's length
	f.Add(forged)
	f.Add(appendFrame(bytes.Clone(seg), Record{Seq: 2, Src: 9, Dst: 9, Weight: 1})) // intact, but seq regresses

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed []Record
		info, err := replaySegment(path, 0, func(r Record) error {
			if n := len(replayed); n > 0 && r.Seq <= replayed[n-1].Seq {
				t.Fatalf("record %d has seq %d after %d", n, r.Seq, replayed[n-1].Seq)
			}
			replayed = append(replayed, r)
			return nil
		})
		var pathErr *fs.PathError
		switch {
		case errors.Is(err, ErrCorrupt):
			return // intact frames in the wrong order: Open refuses the log
		case errors.As(err, &pathErr):
			return // the file system's error, not the bytes'
		case err != nil:
			t.Fatalf("replay: %v wraps neither ErrCorrupt nor an I/O error", err)
		}
		if info.Records != len(replayed) || info.Bytes != int64(len(replayed)*frame) || info.Bytes+info.TornTail != int64(len(data)) {
			t.Fatalf("%d records in %d bytes, %d torn, of %d: want every record framed and the rest torn",
				info.Records, info.Bytes, info.TornTail, len(data))
		}

		open := func() ([]Record, int64) {
			var recs []Record
			w, err := Open(dir, WALOptions{}, func(r Record) error { recs = append(recs, r); return nil })
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			torn := w.TornBytes()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return recs, torn
		}
		first, torn := open()
		if !reflect.DeepEqual(first, replayed) || torn != info.TornTail {
			t.Fatalf("open replayed %d records and tore %d bytes; replay delivered %d and reported %d torn",
				len(first), torn, len(replayed), info.TornTail)
		}
		second, torn := open()
		if !reflect.DeepEqual(second, first) || torn != 0 {
			t.Fatalf("reopen replayed %d records and tore %d bytes, want the %d records of the first open and none torn",
				len(second), torn, len(first))
		}
	})
}
