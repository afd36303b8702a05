// Package wal is a write-ahead log with redo recovery for the
// executable mini-DBMS. The paper's setting (ref [2], Bernstein,
// Hadzilacos & Goodman) pairs concurrency control with recovery; this
// package supplies the recovery half for internal/engine: committed
// transactions survive a crash, uncommitted ones vanish.
//
// The log is a stream of fixed-size binary records, each protected by a
// CRC-32 checksum. Recovery scans the log, tolerates a torn tail (a
// record cut short or corrupted by the crash ends the usable log), and
// redoes the after-images of committed transactions in log order.
// Because recovery rebuilds state from scratch, skipping uncommitted
// transactions is an implicit undo — the engine never externalizes
// uncommitted state anywhere except this log.
//
// The package has two layers (see docs/WAL.md):
//
//   - Record + Reader: the record codec, and a buffered scanner over any
//     io stream of records.
//   - Log, Set, Dir: the one appender and its recovery. Log is a
//     group-commit pipeline over one sink: committers enqueue their
//     record group and park; a single background flusher coalesces
//     everything queued since the last flush into one buffered write and
//     one Sync, then wakes the whole cohort. Set spreads a Log per
//     partition with a cross-partition ordering rule that RecoverSet —
//     the one recovery classifier — verifies. Dir keeps a Set's files
//     beside checksummed snapshots, installed atomically and followed by
//     log truncation, so recovery time is bounded by write rate since
//     the last checkpoint rather than by history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Kind discriminates log records.
type Kind uint8

const (
	// KindBegin marks the start of a transaction.
	KindBegin Kind = iota + 1
	// KindUpdate carries one entity update with before and after
	// images.
	KindUpdate
	// KindCommit marks a transaction durable. In a per-partition Set,
	// the commit record's Entity field carries the transaction's full
	// partition mask (bit k set = log k was touched); 0 means the
	// transaction lives entirely in the log the record was read from
	// (the single-log layout, and every log written before partition
	// masks existed).
	KindCommit
	// KindAbort marks a transaction rolled back (its updates must be
	// ignored by recovery, like an uncommitted transaction's).
	KindAbort
)

// String returns the record kind name.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindUpdate:
		return "update"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one log entry. Entity, Before and After are meaningful only
// for KindUpdate; a KindCommit record reuses Entity as the partition
// mask (see Kind).
type Record struct {
	Kind   Kind
	Txn    int64
	Entity int64
	Before int64
	After  int64
}

// recordSize is the fixed on-disk record size: kind(1) + txn(8) +
// entity(8) + before(8) + after(8) + crc(4).
const recordSize = 1 + 8 + 8 + 8 + 8 + 4

// RecordSize is the fixed on-disk record size in bytes, exported for
// tooling that computes offsets (walinspect, crash harnesses).
const RecordSize = recordSize

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// marshal encodes r into buf (length recordSize).
func (r Record) marshal(buf []byte) {
	buf[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(buf[1:], uint64(r.Txn))
	binary.LittleEndian.PutUint64(buf[9:], uint64(r.Entity))
	binary.LittleEndian.PutUint64(buf[17:], uint64(r.Before))
	binary.LittleEndian.PutUint64(buf[25:], uint64(r.After))
	crc := crc32.Checksum(buf[:recordSize-4], crcTable)
	binary.LittleEndian.PutUint32(buf[recordSize-4:], crc)
}

// ErrCorrupt reports a record that failed its checksum — for recovery,
// the end of the usable log.
var ErrCorrupt = errors.New("wal: corrupt record")

// unmarshal decodes buf into a Record, verifying the checksum.
func unmarshal(buf []byte) (Record, error) {
	want := binary.LittleEndian.Uint32(buf[recordSize-4:])
	if crc32.Checksum(buf[:recordSize-4], crcTable) != want {
		return Record{}, ErrCorrupt
	}
	r := Record{
		Kind:   Kind(buf[0]),
		Txn:    int64(binary.LittleEndian.Uint64(buf[1:])),
		Entity: int64(binary.LittleEndian.Uint64(buf[9:])),
		Before: int64(binary.LittleEndian.Uint64(buf[17:])),
		After:  int64(binary.LittleEndian.Uint64(buf[25:])),
	}
	if r.Kind < KindBegin || r.Kind > KindAbort {
		return Record{}, ErrCorrupt
	}
	return r, nil
}

// readerChunk is how many bytes Reader pulls from its source per fill —
// recovery reads the log in large sequential chunks instead of one
// 37-byte ReadFull per record.
const readerChunk = 64 * 1024

// Reader iterates a log stream record by record, reading the source in
// buffered chunks.
type Reader struct {
	r      io.Reader
	buf    []byte
	pos, n int   // valid window buf[pos:n]
	err    error // sticky source error (io.EOF included)
}

// NewReader returns a Reader over src.
func NewReader(src io.Reader) *Reader {
	return &Reader{r: src, buf: make([]byte, readerChunk)}
}

// fill tops the buffer up until it holds at least one record or the
// source is exhausted.
func (r *Reader) fill() {
	if r.pos > 0 {
		r.n = copy(r.buf, r.buf[r.pos:r.n])
		r.pos = 0
	}
	for r.n-r.pos < recordSize && r.err == nil {
		k, err := r.r.Read(r.buf[r.n:])
		r.n += k
		if err != nil {
			r.err = err
		}
	}
}

// Next returns the next record. It returns io.EOF at a clean end of
// log, and ErrCorrupt (possibly wrapped) at a torn or damaged tail —
// recovery treats both as the end of the usable log.
func (r *Reader) Next() (Record, error) {
	if r.n-r.pos < recordSize {
		r.fill()
	}
	if rem := r.n - r.pos; rem < recordSize {
		if r.err != nil && r.err != io.EOF {
			return Record{}, fmt.Errorf("wal: read: %w", r.err)
		}
		if rem == 0 {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: torn record of %d bytes at end of log", ErrCorrupt, rem)
	}
	rec, err := unmarshal(r.buf[r.pos : r.pos+recordSize])
	if err != nil {
		// An all-zero slot is untouched preallocated space: the clean
		// logical end of a file-backed log. (No valid record is all
		// zeros — kind 0 is invalid — and a torn write leaves a nonzero
		// prefix, since records start with a nonzero kind byte.)
		if allZero(r.buf[r.pos : r.pos+recordSize]) {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	r.pos += recordSize
	return rec, nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// RecoverStats summarizes RecoverSet's scan of one log
// (SetRecoverStats.Logs[k]); transaction outcomes, which may span logs,
// are counted on SetRecoverStats.
type RecoverStats struct {
	// Records is the number of intact records scanned.
	Records int
	// Committed and Aborted count the commit and abort records found in
	// this log.
	Committed int
	Aborted   int
	// Torn reports whether the scan ended at a corrupt tail rather than
	// a clean EOF.
	Torn bool
	// MaxTxn is the highest transaction ID on any scanned record. A
	// writer appending to a recovered log must number new transactions
	// above it — reusing a surviving transaction's ID corrupts the next
	// recovery's per-transaction evidence.
	MaxTxn int64
}
