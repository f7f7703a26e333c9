// Package ingest is the durable streaming-edge path: a segmented,
// CRC-framed write-ahead log of edge insertions (wal.go), and the
// service (service.go) that applies logged edges to the serving factors'
// dynamic state while tracking a provable drift bound and triggering
// full rebuilds when the bound exceeds its budget.
//
// Durability contract: Append acknowledges only after the records are
// framed, written, and fsynced (group commit — concurrent appenders
// share one fsync). A crash between write and sync may or may not keep
// the tail records; a crash mid-write leaves a torn final frame. Replay
// therefore promises at-least-once delivery of every acknowledged
// record, in sequence order, and truncates an unacknowledged torn tail
// instead of failing. Sequence numbers are assigned by the WAL,
// strictly increasing (gaps allowed — a failed batch burns its seqs),
// so consumers deduplicate replay against the last sequence their
// downstream state has already absorbed.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"csrplus/internal/fault"
)

// ErrCorrupt marks a WAL whose non-tail contents fail validation: a bad
// CRC or malformed frame with more data behind it, a non-monotone
// sequence, or a damaged segment that is not the last. Unlike a torn
// tail (silently truncated — the crash case the format is designed
// for), ErrCorrupt is fatal: acknowledged history cannot be trusted.
var ErrCorrupt = errors.New("ingest: corrupt WAL")

// ErrClosed is returned by operations on a closed (or failed) WAL.
var ErrClosed = errors.New("ingest: WAL closed")

const (
	segPrefix = "wal-"
	segSuffix = ".seg"

	// Frame layout: [u32 payload length][u32 CRC32-IEEE of payload]
	// [payload]. Every payload today is exactly recordSize bytes; the
	// length field exists so the format can grow record kinds without
	// breaking old readers' framing.
	frameHeader = 8
	recordSize  = 24 // u64 seq, u32 src, u32 dst, u64 float64 bits weight

	// defaultSegmentBytes rotates segments at 4 MiB (~130k records) —
	// large enough that rotation fsyncs are rare, small enough that
	// inspection works in segment-sized units, and the unit Prune deletes:
	// a sealed segment goes once every snapshot generation a boot could
	// serve holds its records.
	defaultSegmentBytes = 4 << 20
)

// Record is one logged edge insertion.
type Record struct {
	Seq      uint64
	Src, Dst uint32
	Weight   float64
}

// WALOptions tunes Open.
type WALOptions struct {
	// SegmentBytes is the rotation threshold. 0 means 4 MiB.
	SegmentBytes int64
}

// WAL is a segmented write-ahead log of edge records. Append is safe
// for concurrent use; appenders group-commit on a shared fsync.
type WAL struct {
	dir      string
	segBytes int64

	mu     sync.Mutex // serializes writes, rotation, and seq assignment
	f      *os.File
	fw     io.Writer // f behind the SiteWALAppend fault wrapper
	size   int64     // bytes in the active segment (committed frames only)
	seq    uint64    // last assigned sequence number
	buf    []byte    // frame scratch
	failed error     // sticky: set when the segment is in an unknown state

	syncMu  sync.Mutex    // group commit: one fsync at a time
	written atomic.Uint64 // highest seq written to the OS
	durable atomic.Uint64 // highest seq known fsynced

	torn int64 // bytes truncated from the tail at Open, for inspection
	// pruned is the sequence at or below which Prune may have deleted
	// records: one less than the first segment's first sequence.
	pruned uint64
}

// SegmentInfo describes one WAL segment, as replayed or inspected.
type SegmentInfo struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"first_seq"` // 0 when the segment holds no records
	LastSeq  uint64 `json:"last_seq"`
	Records  int    `json:"records"`
	Bytes    int64  `json:"bytes"`             // valid frame bytes
	TornTail int64  `json:"torn_tail"`         // trailing bytes past the last valid frame
	Corrupt  string `json:"corrupt,omitempty"` // non-empty: why the segment is fatal
}

// Open replays every segment in dir (creating dir if needed), invoking
// fn for each valid record in sequence order, truncates the torn tail
// of the final segment if one exists, and returns a WAL positioned for
// appending. fn may be nil. An error from fn aborts the open.
//
// A damaged frame in any segment but the last — or a valid frame whose
// sequence does not increase — returns ErrCorrupt (wrapped): the log's
// acknowledged history is not intact and no write position is safe.
func Open(dir string, opts WALOptions, fn func(Record) error) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: open WAL: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, segBytes: opts.SegmentBytes}
	if w.segBytes <= 0 {
		w.segBytes = defaultSegmentBytes
	}
	if len(segs) > 0 {
		w.pruned = max(segmentFirst(segs[0]), 1) - 1
	}
	var lastSeq uint64
	for i, name := range segs {
		last := i == len(segs)-1
		info, err := replaySegment(filepath.Join(dir, name), lastSeq, fn)
		if err != nil {
			return nil, err
		}
		if info.Corrupt != "" {
			if !last {
				return nil, fmt.Errorf("%w: segment %s: %s (not the final segment)", ErrCorrupt, name, info.Corrupt)
			}
			// A damaged tail on the final segment is the crash the
			// format promises to absorb: drop the unacknowledged bytes.
			if err := truncateSegment(filepath.Join(dir, name), info.Bytes); err != nil {
				return nil, err
			}
			w.torn = info.TornTail
		}
		if info.Records > 0 {
			lastSeq = info.LastSeq
		}
	}
	w.seq = lastSeq
	w.written.Store(lastSeq)
	w.durable.Store(lastSeq)

	// Append into the final segment if there is one and it has room;
	// otherwise start a fresh segment for the next sequence.
	if len(segs) > 0 {
		path := filepath.Join(dir, segs[len(segs)-1])
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("ingest: open WAL: %w", err)
		}
		if st.Size() < w.segBytes {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("ingest: open WAL: %w", err)
			}
			w.f, w.fw, w.size = f, fault.Writer(fault.SiteWALAppend, f), st.Size()
			return w, nil
		}
	}
	if err := w.openSegmentLocked(lastSeq + 1); err != nil {
		return nil, err
	}
	return w, nil
}

// TornBytes reports how many unacknowledged tail bytes Open discarded.
func (w *WAL) TornBytes() int64 { return w.torn }

// Pruned returns the sequence at or below which records may have been
// deleted by Prune: a reader that needs any of them cannot use this log.
func (w *WAL) Pruned() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pruned
}

// Advance moves the last assigned sequence up to seq when the log ends
// below it, burning the sequences between (gaps are legal): a log younger
// than the snapshot it is replayed against — a fresh directory, or one
// removed and re-bootstrapped — must not hand out sequences the snapshot
// already claims, or a restart from that snapshot would take the new
// records for ones it holds.
func (w *WAL) Advance(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seq < seq {
		w.seq = seq
		w.written.Store(seq)
		w.durable.Store(seq)
	}
}

// Prune deletes every sealed segment whose records all lie at or below
// seq — the sequence every snapshot generation a boot could serve already
// holds (core.WalFloor) — oldest first, and returns how many it deleted.
// A segment's records lie below the first sequence of the segment after it,
// which names it; the active segment is never deleted.
func (w *WAL) Prune(seq uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(segs) && segmentFirst(segs[i+1])-1 <= seq; i++ {
		if err := os.Remove(filepath.Join(w.dir, segs[i])); err != nil {
			return removed, fmt.Errorf("ingest: prune WAL: %w", err)
		}
		w.pruned = segmentFirst(segs[i+1]) - 1
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, fmt.Errorf("ingest: prune WAL: %w", err)
		}
	}
	return removed, nil
}

// DurableSeq returns the highest sequence known to be fsynced.
func (w *WAL) DurableSeq() uint64 { return w.durable.Load() }

// Append assigns sequence numbers to records (Seq fields are ignored on
// input), writes them as one framed batch, and returns the last
// assigned sequence once the batch is durable. On error the sequences
// are burned either way, and the returned seq disambiguates what the
// log holds: 0 means the batch never committed (a torn write was cut
// back to the previous frame boundary, so replay cannot surface it),
// while a non-zero seq means the batch reached the log but durability
// is unconfirmed — a restart's replay may or may not include it, so
// callers tracking applied state must treat it as possibly present.
func (w *WAL) Append(records []Record) (uint64, error) {
	if len(records) == 0 {
		return w.DurableSeq(), nil
	}
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	if w.size >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	w.buf = w.buf[:0]
	for i := range records {
		w.seq++
		records[i].Seq = w.seq
		w.buf = appendFrame(w.buf, records[i])
	}
	last := w.seq
	prevSize := w.size
	if _, err := w.fw.Write(w.buf); err != nil {
		// The segment now ends in an unknown partial frame. Cut it back
		// to the last committed frame so later appends don't bury torn
		// bytes mid-file, and start a fresh segment (the fault-wrapped
		// writer may be sticky-torn). If the cut itself fails the WAL is
		// done: only a restart's replay can find a safe position again.
		werr := fmt.Errorf("ingest: WAL append: %w", err)
		if terr := w.recoverTornLocked(prevSize); terr != nil {
			w.failed = fmt.Errorf("%w (and recovering the segment failed: %v)", werr, terr)
		}
		w.mu.Unlock()
		return 0, werr
	}
	w.size += int64(len(w.buf))
	w.written.Store(last)
	w.mu.Unlock()

	// Group commit: serialize fsyncs; whoever gets the lock first syncs
	// everything written so far, and later arrivals find their records
	// already durable.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durable.Load() >= last {
		return last, nil
	}
	w.mu.Lock()
	f, written, failed := w.f, w.written.Load(), w.failed
	w.mu.Unlock()
	if failed != nil {
		// Our frames were fully written before the WAL failed; they may
		// survive a crash even though they were never fsynced.
		return last, failed
	}
	if err := syncFile(f); err != nil {
		return last, fmt.Errorf("ingest: WAL sync: %w", err)
	}
	w.durable.Store(written)
	return last, nil
}

// recoverTornLocked truncates the active segment back to size (the end
// of the last committed frame) and switches to a fresh segment.
func (w *WAL) recoverTornLocked(size int64) error {
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	if err := syncFile(w.f); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	return w.openSegmentLocked(w.seq + 1)
}

// rotateLocked seals the active segment (fsync, so replay's "only the
// last segment may be torn" invariant holds) and opens the next one,
// named by the first sequence it will contain.
func (w *WAL) rotateLocked() error {
	if err := syncFile(w.f); err != nil {
		return fmt.Errorf("ingest: WAL rotate: %w", err)
	}
	w.durable.Store(w.written.Load())
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ingest: WAL rotate: %w", err)
	}
	w.f = nil
	return w.openSegmentLocked(w.seq + 1)
}

func (w *WAL) openSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(w.dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: WAL segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("ingest: WAL segment: %w", err)
	}
	w.f, w.fw, w.size = f, fault.Writer(fault.SiteWALAppend, f), 0
	return nil
}

// Close syncs and closes the active segment. Appends after Close fail
// with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := syncFile(w.f)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.durable.Store(w.written.Load())
	}
	w.f = nil
	w.failed = ErrClosed
	return err
}

// Info describes a whole WAL directory, as Inspect reports it.
type Info struct {
	Dir      string        `json:"dir"`
	Segments []SegmentInfo `json:"segments"`
	FirstSeq uint64        `json:"first_seq"`
	LastSeq  uint64        `json:"last_seq"`
	Records  int           `json:"records"`
	TornTail int64         `json:"torn_tail"`
	// Corrupt is non-empty when the log's acknowledged history is
	// damaged (a bad segment that is not the final one, or a sequence
	// regression) — the condition Open fails on.
	Corrupt string `json:"corrupt,omitempty"`
}

// Inspect reads a WAL directory without modifying it: segment list,
// sequence range, per-segment CRC validation, and torn-tail report.
// Damage is reported in the returned Info, not as an error; the error
// covers only I/O problems reading the directory.
func Inspect(dir string) (Info, error) {
	info := Info{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return info, err
	}
	var lastSeq uint64
	for i, name := range segs {
		si, err := replaySegment(filepath.Join(dir, name), lastSeq, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return info, err
		}
		info.Segments = append(info.Segments, si)
		if errors.Is(err, ErrCorrupt) && info.Corrupt == "" {
			info.Corrupt = fmt.Sprintf("segment %s: %s", name, si.Corrupt)
		}
		if si.Records > 0 {
			if info.FirstSeq == 0 {
				info.FirstSeq = si.FirstSeq
			}
			info.LastSeq = si.LastSeq
			lastSeq = si.LastSeq
		}
		info.Records += si.Records
		if si.Corrupt != "" {
			if i == len(segs)-1 {
				info.TornTail = si.TornTail
			} else if info.Corrupt == "" {
				info.Corrupt = fmt.Sprintf("segment %s: %s (not the final segment)", name, si.Corrupt)
			}
		}
	}
	return info, nil
}

// replaySegment scans one segment, calling fn per valid record. Damage
// is reported in the SegmentInfo (Corrupt + TornTail) rather than as an
// error, because whether it is fatal depends on the segment's position;
// the returned error covers I/O and fn failures only. prevSeq is the
// last sequence of the preceding segment, for monotonicity checking.
func replaySegment(path string, prevSeq uint64, fn func(Record) error) (SegmentInfo, error) {
	info := SegmentInfo{Name: filepath.Base(path)}
	f, err := os.Open(path)
	if err != nil {
		return info, fmt.Errorf("ingest: replay %s: %w", info.Name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return info, fmt.Errorf("ingest: replay %s: %w", info.Name, err)
	}
	total := st.Size()
	r := fault.Reader(fault.SiteWALReplay, f)

	var hdr [frameHeader]byte
	payload := make([]byte, recordSize)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return info, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				info.Corrupt = "truncated frame header"
				info.TornTail = total - info.Bytes
				return info, nil
			}
			return info, fmt.Errorf("ingest: replay %s: %w", info.Name, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length != recordSize {
			info.Corrupt = fmt.Sprintf("frame at offset %d has length %d, want %d", info.Bytes, length, recordSize)
			info.TornTail = total - info.Bytes
			return info, nil
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				info.Corrupt = "truncated frame payload"
				info.TornTail = total - info.Bytes
				return info, nil
			}
			return info, fmt.Errorf("ingest: replay %s: %w", info.Name, err)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			info.Corrupt = fmt.Sprintf("CRC mismatch at offset %d", info.Bytes)
			info.TornTail = total - info.Bytes
			return info, nil
		}
		rec := decodeRecord(payload)
		if rec.Seq <= prevSeq {
			// A frame with a valid CRC but a non-increasing sequence is
			// not a torn write — the bytes are intact and wrong. Report
			// it as corruption regardless of position.
			info.Corrupt = fmt.Sprintf("sequence regressed: %d after %d at offset %d", rec.Seq, prevSeq, info.Bytes)
			info.TornTail = 0
			return info, fmt.Errorf("%w: segment %s: %s", ErrCorrupt, info.Name, info.Corrupt)
		}
		prevSeq = rec.Seq
		if info.Records == 0 {
			info.FirstSeq = rec.Seq
		}
		info.LastSeq = rec.Seq
		info.Records++
		info.Bytes += frameHeader + recordSize
		if fn != nil {
			if err := fn(rec); err != nil {
				return info, err
			}
		}
	}
}

func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: truncate torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("ingest: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ingest: truncate torn tail: %w", err)
	}
	return nil
}

func appendFrame(buf []byte, rec Record) []byte {
	var payload [recordSize]byte
	binary.LittleEndian.PutUint64(payload[0:8], rec.Seq)
	binary.LittleEndian.PutUint32(payload[8:12], rec.Src)
	binary.LittleEndian.PutUint32(payload[12:16], rec.Dst)
	binary.LittleEndian.PutUint64(payload[16:24], math.Float64bits(rec.Weight))
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], recordSize)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload[:]))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:]...)
}

func decodeRecord(payload []byte) Record {
	return Record{
		Seq:    binary.LittleEndian.Uint64(payload[0:8]),
		Src:    binary.LittleEndian.Uint32(payload[8:12]),
		Dst:    binary.LittleEndian.Uint32(payload[12:16]),
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(payload[16:24])),
	}
}

// segmentName names a segment by the first sequence it contains, so the
// lexicographic directory order is the replay order.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

// segmentFirst is the first sequence of a segment listSegments returned.
func segmentFirst(name string) uint64 {
	seq, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	return seq
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ingest: list WAL: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64); err != nil {
			continue
		}
		segs = append(segs, name)
	}
	sort.Strings(segs)
	return segs, nil
}

// syncFile fsyncs f through the SiteWALSync fault gate.
func syncFile(f *os.File) error {
	if err := fault.Hit(fault.SiteWALSync); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a just-created segment's dirent is
// durable (best-effort on filesystems that reject directory fsync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
