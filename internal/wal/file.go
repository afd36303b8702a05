package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log file format (see docs/WAL.md):
//
//	header:  magic "GWALLOG1" (8) | base int64 (8) | crc32c(header) (4)
//	body:    fixed-size records (recordSize bytes each)
//
// base is the sequence number of the record that physically follows the
// header — zero for a fresh log, the truncation point after Truncate.
// The file may be preallocated beyond its logical end; the zero fill
// never decodes as a valid record (kind 0 is invalid and the checksum
// cannot match), so the open-time scan stops at the logical end.

var logMagic = [8]byte{'G', 'W', 'A', 'L', 'L', 'O', 'G', '1'}

// logHeaderSize is the fixed log file header length.
const logHeaderSize = 8 + 8 + 4

// LogHeaderSize is the log file header length in bytes, exported for
// tooling that computes record offsets.
const LogHeaderSize = logHeaderSize

// defaultPreallocate is how far OpenFile extends a fresh log file so
// appends rewrite allocated blocks instead of growing the file.
const defaultPreallocate = 1 << 20

// WithPreallocate sets the byte size a fresh log file is extended to at
// creation (0 disables preallocation).
func WithPreallocate(size int64) LogOption {
	return func(o *logOptions) { o.preallocate = size }
}

// FaultInjector intercepts file I/O for crash testing. The file sink
// consults it before every log append and snapshot staging write
// ("write", with the byte count) and every log and staging sync
// ("sync", 0). Returning a nil error lets the operation proceed.
// Returning an error fails the operation; for a write, the first allow
// bytes are still written — a torn write, exactly what a crash leaves
// behind. The injector must be safe for concurrent use (one injector is
// typically shared across all logs of a Set so every partition "loses
// power" at the same moment).
type FaultInjector func(op string, n int) (allow int, err error)

// WithFaultInjector installs inj on the sinks of the logs OpenFile and
// OpenDir open and on OpenDir's snapshot staging file. NewLog ignores
// it.
func WithFaultInjector(inj FaultInjector) LogOption {
	return func(o *logOptions) { o.injector = inj }
}

// fileSink is the one file-backed sink: positioned writes at a tracked
// offset (so preallocated tails are overwritten in place), fsync on
// Sync, and physical prefix truncation via rewrite-and-rename. With an
// injector it tears its writes and fails its syncs where the injector
// says; the header and preallocation at open and the truncation rewrite
// write the file directly and are never injected.
type fileSink struct {
	f      *os.File
	path   string
	off    int64 // next write offset
	base   int64 // sequence number at the header
	inject FaultInjector
}

func (s *fileSink) Write(p []byte) (int, error) {
	var injected error
	if s.inject != nil {
		allow, err := s.inject("write", len(p))
		if err != nil {
			p, injected = p[:min(max(allow, 0), len(p))], err
		}
	}
	n, err := s.f.WriteAt(p, s.off)
	s.off += int64(n)
	if injected != nil {
		return n, injected
	}
	return n, err
}

func (s *fileSink) Sync() error {
	if s.inject != nil {
		if _, err := s.inject("sync", 0); err != nil {
			return err
		}
	}
	return s.f.Sync()
}

func (s *fileSink) Close() error { return s.f.Close() }

// truncateTo rewrites the file keeping only records after sequence
// number seq: copy the tail into a temp file under a header with
// base=seq, fsync, rename over the original, reopen.
func (s *fileSink) truncateTo(seq int64) error {
	skip := logHeaderSize + (seq-s.base)*recordSize
	if skip < logHeaderSize || skip > s.off {
		return fmt.Errorf("truncation point %d outside log [%d,%d]", seq, s.base, s.base+(s.off-logHeaderSize)/recordSize)
	}
	tmpPath := s.path + ".trunc"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)
	if _, err := tmp.Write(encodeLogHeader(seq)); err != nil {
		tmp.Close()
		return err
	}
	if s.off > skip {
		if _, err := io.Copy(tmp, io.NewSectionReader(s.f, skip, s.off-skip)); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return err
	}
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s.f.Close()
	s.f = nf
	s.off = logHeaderSize + (s.off - skip)
	s.base = seq
	return nil
}

func encodeLogHeader(base int64) []byte {
	h := make([]byte, logHeaderSize)
	copy(h, logMagic[:])
	binary.LittleEndian.PutUint64(h[8:], uint64(base))
	binary.LittleEndian.PutUint32(h[16:], crc32.Checksum(h[:16], crcTable))
	return h
}

func decodeLogHeader(h []byte) (base int64, err error) {
	if len(h) < logHeaderSize || [8]byte(h[:8]) != logMagic {
		return 0, fmt.Errorf("%w: bad log header magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(h[16:]) != crc32.Checksum(h[:16], crcTable) {
		return 0, fmt.Errorf("%w: log header checksum", ErrCorrupt)
	}
	return int64(binary.LittleEndian.Uint64(h[8:])), nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OpenFile opens (or creates) a file-backed group-commit Log at path.
// A fresh file gets a header and is preallocated (WithPreallocate,
// default 1 MiB). Reopening scans the valid record prefix — stopping at
// the first torn or zero-filled slot — and continues appending from the
// logical end; sequence numbers continue from base + intact records.
func OpenFile(path string, opts ...LogOption) (*Log, error) {
	o := newLogOptions(opts)
	sink, seq, err := openFileSink(path, o)
	if err != nil {
		return nil, err
	}
	return newLogAt(sink, sink.base, seq, o), nil
}

// openFileSink opens path as a log file and returns the sink positioned
// at the logical end, carrying o's injector, plus the durable sequence
// number found there.
func openFileSink(path string, o logOptions) (*fileSink, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	s := &fileSink{f: f, path: path, inject: o.injector}
	if info.Size() == 0 {
		// Fresh log: header, durability, preallocation.
		if _, err := f.WriteAt(encodeLogHeader(0), 0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("wal: init %s: %w", path, err)
		}
		if o.preallocate > logHeaderSize {
			if err := f.Truncate(o.preallocate); err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("wal: preallocate %s: %w", path, err)
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
		s.off = logHeaderSize
		return s, 0, nil
	}

	base, body, err := readLogHeader(f, path, info.Size())
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	// Scan the intact record prefix to find the logical end.
	r := NewReader(body)
	var n int64
	for {
		if _, err := r.Next(); err != nil {
			break
		}
		n++
	}
	s.base = base
	s.off = logHeaderSize + n*recordSize
	return s, base + n, nil
}

// readLogHeader is the one reader of the log file header: it validates
// the logHeaderSize bytes at the front of f (a file of the given size)
// and returns the base sequence number and the record region after it.
func readLogHeader(f *os.File, path string, size int64) (base int64, body *io.SectionReader, err error) {
	head := make([]byte, logHeaderSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return 0, nil, fmt.Errorf("wal: %s: %w: short header", path, ErrCorrupt)
	}
	if base, err = decodeLogHeader(head); err != nil {
		return 0, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return base, io.NewSectionReader(f, logHeaderSize, size-logHeaderSize), nil
}

// ReadFile opens a log file written by OpenFile for scanning: it
// validates the header and returns a Reader over every record in the
// file, the header's base sequence number, and the file handle to close
// when done. The Reader stops cleanly at the logical end (zero-filled
// preallocation) and reports a torn tail as ErrCorrupt, exactly like
// recovery's scan.
func ReadFile(path string) (*Reader, int64, io.Closer, error) {
	base, body, f, err := openLogBody(path)
	if err != nil {
		return nil, 0, nil, err
	}
	return NewReader(body), base, f, nil
}

// openLogBody opens path read-only and validates its header.
func openLogBody(path string) (int64, *io.SectionReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, nil, nil, err
	}
	base, body, err := readLogHeader(f, path, info.Size())
	if err != nil {
		f.Close()
		return 0, nil, nil, err
	}
	return base, body, f, nil
}

// tailReader is ReadFile starting after sequence number seq.
func tailReader(path string, seq int64) (*Reader, io.Closer, error) {
	base, body, f, err := openLogBody(path)
	if err != nil {
		return nil, nil, err
	}
	if seq < base {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %s truncated past replay point (base %d > seq %d)", path, base, seq)
	}
	start := min((seq-base)*recordSize, body.Size())
	return NewReader(io.NewSectionReader(body, start, body.Size()-start)), f, nil
}

// Dir is a directory holding a Set's per-partition log files plus the
// current snapshot: wal-<k>.log for each partition and snapshot.snap.
type Dir struct {
	path     string
	injector FaultInjector // tears snapshot staging writes (WithFaultInjector)
	set      *Set
	// fail is the checkpoint failpoint hook (SetFailpoint), consulted
	// between install stages so crash tests can kill mid-snapshot.
	fail func(stage string) error
}

// logPath returns partition k's file path under dir.
func logPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", k))
}

// snapPath returns the snapshot path under dir.
func snapPath(dir string) string { return filepath.Join(dir, "snapshot.snap") }

// OpenDir opens (creating if needed) a WAL directory with one log per
// partition. Reopening an existing directory positions every log at its
// logical end; call Recover to rebuild state before writing. The
// partition count must match the directory's existing layout.
func OpenDir(path string, parts int, opts ...LogOption) (*Dir, error) {
	if parts < 1 || parts > MaxPartitions {
		return nil, fmt.Errorf("wal: %d partitions outside [1,%d]", parts, MaxPartitions)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	o := newLogOptions(opts)
	// Refuse a layout mismatch: an extra existing log file means the
	// directory was written with more partitions.
	if _, err := os.Stat(logPath(path, parts)); err == nil {
		return nil, fmt.Errorf("wal: %s holds more than %d partition logs", path, parts)
	}
	logs := make([]*Log, 0, parts)
	for k := 0; k < parts; k++ {
		sink, seq, err := openFileSink(logPath(path, k), o)
		if err != nil {
			// Close stops each log's flusher along with its file.
			for _, l := range logs {
				l.Close()
			}
			return nil, err
		}
		logs = append(logs, newLogAt(sink, sink.base, seq, o))
	}
	return &Dir{path: path, injector: o.injector, set: &Set{logs: logs}}, nil
}

// Set returns the directory's log set.
func (d *Dir) Set() *Set { return d.set }

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Close closes the set (draining in-flight flushes) and the files.
func (d *Dir) Close() error { return d.set.Close() }

// SetFailpoint installs a hook consulted between snapshot-install
// stages ("snapshot-tmp", "snapshot-installed", "truncate-<k>");
// returning an error aborts the install at that stage. A deliberate
// test hook: crash harnesses use it to die mid-checkpoint, and no
// production path sets it.
func (d *Dir) SetFailpoint(f func(stage string) error) { d.fail = f }

func (d *Dir) failAt(stage string) error {
	if d.fail == nil {
		return nil
	}
	return d.fail(stage)
}

// Install atomically publishes snapshot s and truncates each log's
// replayed prefix. The snapshot is staged to a temp file, fsynced, then
// renamed over snapshot.snap (with a directory sync), so a crash at any
// point leaves either the old snapshot or the new one — never a torn
// one under the live name. The staging file is written through a
// fileSink, so the Dir's injector can tear the snapshot and fail its
// sync. Truncation runs after the rename; a crash between the two merely
// leaves longer logs, which the next recovery replays from the
// snapshot's sequence vector anyway.
func (d *Dir) Install(s *Snapshot) error {
	if len(s.Seqs) != d.set.Len() {
		return fmt.Errorf("wal: snapshot covers %d logs, dir has %d", len(s.Seqs), d.set.Len())
	}
	tmpPath := snapPath(d.path) + ".tmp"
	f, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)
	tmp := &fileSink{f: f, path: tmpPath, inject: d.injector}
	if err := WriteSnapshot(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := d.failAt("snapshot-tmp"); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, snapPath(d.path)); err != nil {
		return err
	}
	if err := syncDir(d.path); err != nil {
		return err
	}
	if err := d.failAt("snapshot-installed"); err != nil {
		return err
	}
	for k := 0; k < d.set.Len(); k++ {
		if err := d.set.Log(k).Truncate(s.Seqs[k]); err != nil {
			return err
		}
		if err := d.failAt(fmt.Sprintf("truncate-%d", k)); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot reads the current snapshot, or (nil, nil) when none has
// been installed yet.
func (d *Dir) LoadSnapshot() (*Snapshot, error) {
	f, err := os.Open(snapPath(d.path))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", snapPath(d.path), err)
	}
	if len(s.Seqs) != d.set.Len() {
		return nil, fmt.Errorf("wal: %s covers %d logs, dir has %d", snapPath(d.path), len(s.Seqs), d.set.Len())
	}
	return s, nil
}

// Recover rebuilds state: the snapshot's entries first, then each log's
// tail past the snapshot's sequence vector, applied through RecoverSet
// (which verifies the cross-partition ordering rule). Leftover staging
// files from an interrupted install are removed. Call it on a freshly
// opened Dir before appending.
func (d *Dir) Recover(apply func(entity int64, value int64)) (SetRecoverStats, error) {
	os.Remove(snapPath(d.path) + ".tmp")
	snap, err := d.LoadSnapshot()
	if err != nil {
		return SetRecoverStats{}, err
	}
	seqs := make([]int64, d.set.Len())
	if snap != nil {
		copy(seqs, snap.Seqs)
		for _, e := range snap.Entries {
			apply(e.Entity, e.Value)
		}
	}
	readers := make([]*Reader, d.set.Len())
	closers := make([]io.Closer, 0, d.set.Len())
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for k := 0; k < d.set.Len(); k++ {
		base := d.set.Log(k).Base()
		if seqs[k] < base {
			return SetRecoverStats{}, fmt.Errorf("wal: log %d truncated to %d but snapshot only covers %d", k, base, seqs[k])
		}
		r, c, err := tailReader(logPath(d.path, k), seqs[k])
		if err != nil {
			return SetRecoverStats{}, err
		}
		readers[k] = r
		closers = append(closers, c)
	}
	return RecoverSet(readers, apply)
}
