package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot file format (see docs/WAL.md):
//
//	header:  magic "GWALSNP1" (8) | nlogs uint32 | nentries uint64 |
//	         seqs [nlogs]int64 | crc32c(header) uint32
//	body:    chunks of up to snapChunk entries, each:
//	         count uint32 | count × (entity int64, value int64) |
//	         crc32c(chunk) uint32
//
// Every section is independently checksummed, so a snapshot cut short
// or bit-flipped anywhere fails ReadSnapshot with ErrCorrupt — a
// half-written snapshot is never loadable, which is what makes the
// write-tmp-then-rename install atomic in effect.

// snapMagic identifies a snapshot file.
var snapMagic = [8]byte{'G', 'W', 'A', 'L', 'S', 'N', 'P', '1'}

// snapChunk is the maximum entries per checksummed body chunk.
const snapChunk = 4096

// SnapshotEntry is one entity's value at the snapshot point.
type SnapshotEntry struct {
	Entity int64
	Value  int64
}

// Snapshot is a point-in-time image of the store, positioned behind the
// per-partition log sequence numbers in Seqs: replaying each log's
// records after Seqs[k] on top of Entries reproduces the live state.
type Snapshot struct {
	// Seqs is the per-partition durable sequence vector at the
	// snapshot point (length = number of logs in the Set; length 1 for
	// a single log).
	Seqs []int64
	// Entries lists every entity's value.
	Entries []SnapshotEntry
}

// WriteSnapshot encodes s to w.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	head := make([]byte, 8+4+8+8*len(s.Seqs)+4)
	copy(head, snapMagic[:])
	binary.LittleEndian.PutUint32(head[8:], uint32(len(s.Seqs)))
	binary.LittleEndian.PutUint64(head[12:], uint64(len(s.Entries)))
	off := 20
	for _, q := range s.Seqs {
		binary.LittleEndian.PutUint64(head[off:], uint64(q))
		off += 8
	}
	crc := crc32.Checksum(head[:off], crcTable)
	binary.LittleEndian.PutUint32(head[off:], crc)
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("wal: snapshot header: %w", err)
	}

	buf := make([]byte, 4+16*snapChunk+4)
	for i := 0; i < len(s.Entries); i += snapChunk {
		end := i + snapChunk
		if end > len(s.Entries) {
			end = len(s.Entries)
		}
		chunk := s.Entries[i:end]
		binary.LittleEndian.PutUint32(buf, uint32(len(chunk)))
		p := 4
		for _, e := range chunk {
			binary.LittleEndian.PutUint64(buf[p:], uint64(e.Entity))
			binary.LittleEndian.PutUint64(buf[p+8:], uint64(e.Value))
			p += 16
		}
		crc := crc32.Checksum(buf[:p], crcTable)
		binary.LittleEndian.PutUint32(buf[p:], crc)
		if _, err := w.Write(buf[:p+4]); err != nil {
			return fmt.Errorf("wal: snapshot chunk: %w", err)
		}
	}
	return nil
}

// ReadSnapshot decodes a snapshot from r, verifying every checksum. Any
// truncation, bit flip, or trailing garbage yields an error wrapping
// ErrCorrupt.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	fixed := make([]byte, 20)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, fmt.Errorf("%w: snapshot header: %v", ErrCorrupt, err)
	}
	if [8]byte(fixed[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	nlogs := binary.LittleEndian.Uint32(fixed[8:])
	nentries := binary.LittleEndian.Uint64(fixed[12:])
	if nlogs == 0 || nlogs > MaxPartitions {
		return nil, fmt.Errorf("%w: snapshot log count %d", ErrCorrupt, nlogs)
	}
	rest := make([]byte, 8*int(nlogs)+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("%w: snapshot header: %v", ErrCorrupt, err)
	}
	crc := crc32.Checksum(fixed, crcTable)
	crc = crc32.Update(crc, crcTable, rest[:8*int(nlogs)])
	if binary.LittleEndian.Uint32(rest[8*int(nlogs):]) != crc {
		return nil, fmt.Errorf("%w: snapshot header checksum", ErrCorrupt)
	}
	s := &Snapshot{Seqs: make([]int64, nlogs)}
	for i := range s.Seqs {
		s.Seqs[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}

	// Body: the header's entry count bounds allocation; each chunk's
	// own checksum guards its contents.
	if nentries > 1<<32 {
		return nil, fmt.Errorf("%w: snapshot entry count %d", ErrCorrupt, nentries)
	}
	// Cap the upfront allocation: a forged header with a huge count
	// still has to back it with checksummed chunks before we grow.
	capHint := nentries
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	s.Entries = make([]SnapshotEntry, 0, capHint)
	var cbuf []byte
	for uint64(len(s.Entries)) < nentries {
		var chead [4]byte
		if _, err := io.ReadFull(r, chead[:]); err != nil {
			return nil, fmt.Errorf("%w: snapshot chunk header: %v", ErrCorrupt, err)
		}
		count := binary.LittleEndian.Uint32(chead[:])
		if count == 0 || count > snapChunk || uint64(len(s.Entries))+uint64(count) > nentries {
			return nil, fmt.Errorf("%w: snapshot chunk count %d", ErrCorrupt, count)
		}
		need := 16*int(count) + 4
		if cap(cbuf) < need {
			cbuf = make([]byte, need)
		}
		cbuf = cbuf[:need]
		if _, err := io.ReadFull(r, cbuf); err != nil {
			return nil, fmt.Errorf("%w: snapshot chunk: %v", ErrCorrupt, err)
		}
		crc := crc32.Checksum(chead[:], crcTable)
		crc = crc32.Update(crc, crcTable, cbuf[:16*int(count)])
		if binary.LittleEndian.Uint32(cbuf[16*int(count):]) != crc {
			return nil, fmt.Errorf("%w: snapshot chunk checksum", ErrCorrupt)
		}
		for i := 0; i < int(count); i++ {
			s.Entries = append(s.Entries, SnapshotEntry{
				Entity: int64(binary.LittleEndian.Uint64(cbuf[16*i:])),
				Value:  int64(binary.LittleEndian.Uint64(cbuf[16*i+8:])),
			})
		}
	}
	// A snapshot is a complete file: trailing bytes mean the header and
	// body came from different writes.
	var trail [1]byte
	if n, _ := io.ReadFull(r, trail[:]); n != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot body", ErrCorrupt)
	}
	return s, nil
}
