// Package journal is an append-only, CRC-framed record log — the
// durability layer under bgr-serve. The service appends small typed
// records (job submitted, job terminal, finished result payload) as
// they happen; on restart it replays the file to rebuild terminal jobs
// and re-warm its result cache, so identical resubmissions hit disk
// instead of re-routing.
//
// On-disk record framing (integers big-endian):
//
//	record := length(uint32) crc(uint32) kind(1 byte) data(length-1 bytes)
//
// length covers kind+data; crc is IEEE CRC-32 over kind+data. Replay
// is torn-tail tolerant: a record whose header, body or CRC is
// truncated or corrupt ends the replay, and the file is truncated back
// to the last intact record before appends resume — exactly the state
// a crash mid-append leaves behind. Corruption is therefore never
// allowed to propagate: everything before the tear is trusted
// (CRC-verified), everything after it is discarded.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Kind tags a record's payload schema. The journal itself treats Data
// as opaque bytes; the service defines the JSON shapes.
type Kind byte

const (
	// KindSubmitted: a job was accepted for routing.
	KindSubmitted Kind = 1
	// KindTerminal: a job reached done/failed/cancelled.
	KindTerminal Kind = 2
	// KindResult: a finished routing's full result payload.
	KindResult Kind = 3
)

// Record is one replayed journal entry.
type Record struct {
	Kind Kind
	Data []byte
}

// SyncPolicy selects when appends reach stable storage. Every append
// is always flushed through to the OS (so a process crash loses
// nothing); the policy only controls fsync, i.e. power-loss durability.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (default; appends are rare —
	// a few per routed job — so the cost is noise next to routing).
	SyncAlways SyncPolicy = iota
	// SyncNone leaves persistence to the OS page cache.
	SyncNone
)

// ParsePolicy maps a flag string to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("journal: unknown sync policy %q (want always|none)", s)
}

// headerLen is the per-record framing overhead: length + crc.
const headerLen = 8

// MaxRecordBytes caps one record's kind+data. Replay treats a larger
// length prefix as tail corruption rather than allocating it, so a
// flipped bit in a length field cannot OOM the server.
const MaxRecordBytes = 256 << 20

// ErrClosed: the journal was closed (e.g. during graceful drain) and
// no longer accepts appends.
var ErrClosed = errors.New("journal: closed")

// ErrTooLarge: a record exceeds MaxRecordBytes.
var ErrTooLarge = errors.New("journal: record exceeds size cap")

// Journal is an open journal file. Append/Sync/Close are safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	policy  SyncPolicy
	closed  bool
	records int64 // records in the file (replayed + appended)
	bytes   int64 // file size
}

// Open replays the journal at path (creating it if absent), truncates
// any torn tail, and returns the journal opened for append plus every
// intact record in append order.
func Open(path string, policy SyncPolicy) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, good, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if good != size {
		// Torn or corrupt tail: cut the file back to the last intact
		// record so the next append starts on a clean boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
	}
	return &Journal{
		f:       f,
		w:       bufio.NewWriter(f),
		policy:  policy,
		records: int64(len(recs)),
		bytes:   good,
	}, recs, nil
}

// replay scans f from the start and returns the intact records plus
// the byte offset just past the last one. Any framing violation —
// short header, oversize length, CRC mismatch, short body — ends the
// scan there; it is reported via the returned offset, not an error.
func replay(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	br := bufio.NewReader(f)
	var recs []Record
	var good int64
	for {
		var hdr [headerLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, good, nil
			}
			return nil, 0, fmt.Errorf("journal: replay: %w", err)
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n < 1 || n > MaxRecordBytes {
			return recs, good, nil // corrupt length: treat as tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, good, nil
			}
			return nil, 0, fmt.Errorf("journal: replay: %w", err)
		}
		if crc32.ChecksumIEEE(body) != sum {
			return recs, good, nil // corrupt body: trust nothing past it
		}
		recs = append(recs, Record{Kind: Kind(body[0]), Data: body[1:]})
		good += headerLen + int64(n)
	}
}

// Append writes one record and flushes it to the OS; under SyncAlways
// it also fsyncs before returning, so a crash after Append cannot lose
// the record.
func (j *Journal) Append(kind Kind, data []byte) error {
	if len(data)+1 > MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data)+1)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	var hdr [headerLen]byte
	n := uint32(len(data) + 1)
	binary.BigEndian.PutUint32(hdr[:4], n)
	crc := crc32.NewIEEE()
	crc.Write([]byte{byte(kind)})
	crc.Write(data)
	binary.BigEndian.PutUint32(hdr[4:], crc.Sum32())
	if _, err := j.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.w.WriteByte(byte(kind)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if _, err := j.w.Write(data); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if j.policy == SyncAlways {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.records++
	j.bytes += headerLen + int64(n)
	return nil
}

// Close flushes, fsyncs and closes the file. Further appends return
// ErrClosed. Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.w.Flush()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the records and bytes currently in the file
// (replayed + appended) for the service's /metrics document.
func (j *Journal) Stats() (records, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.bytes
}
