// Command walinspect dumps write-ahead log artifacts and summarizes
// what recovery would do with them.
//
// Usage:
//
//	walinspect [-v] [-verify] <path>
//
// The path may be:
//
//   - a WAL directory (engine.OpenDurable layout: wal-<k>.log per
//     partition plus snapshot.snap) — prints the snapshot header and a
//     per-partition log summary; with -verify it also replays the
//     snapshot and every log tail through the cross-partition ordering
//     rule and reports the recovered sequence numbers;
//   - a log file written by wal.OpenFile (header magic GWALLOG1) — one
//     partition of a directory (wal-<k>.log) or a stand-alone log such
//     as lockd's grant journal. A single file cannot decide a
//     cross-partition transaction: commits whose mask names other
//     partitions are counted apart, for -verify on the directory;
//   - a snapshot file (magic GWALSNP1);
//   - a headerless stream of raw records (what wal.NewLog writes over a
//     plain io.Writer).
//
// With -v every record (or snapshot entry) prints; otherwise only the
// summaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"granulock/internal/wal"
)

// The artifact magics, from the on-disk formats in docs/WAL.md.
const (
	logFileMagic  = "GWALLOG1"
	snapshotMagic = "GWALSNP1"
)

func main() {
	verbose := flag.Bool("v", false, "print every record or snapshot entry")
	verify := flag.Bool("verify", false, "replay a WAL directory and report the recovered sequence numbers")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: walinspect [-v] [-verify] <path>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *verbose, *verify, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "walinspect:", err)
		os.Exit(1)
	}
}

// run dispatches on what the path holds.
func run(path string, verbose, verify bool, out *os.File) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return runDir(path, verbose, verify, out)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	magic := make([]byte, 8)
	n, _ := io.ReadFull(f, magic)
	f.Close()
	switch string(magic[:n]) {
	case snapshotMagic:
		return runSnapshot(path, verbose, out)
	case logFileMagic:
		return runLogFile(path, verbose, out)
	default:
		return runRaw(path, verbose, out)
	}
}

// dumpRecords prints every record a reader yields, one per line.
func dumpRecords(r *wal.Reader, out *os.File) {
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				fmt.Fprintf(out, "%6d  -- end of usable log: %v\n", i, err)
			}
			break
		}
		switch rec.Kind {
		case wal.KindUpdate:
			fmt.Fprintf(out, "%6d  txn %-6d %-7s entity %d: %d -> %d\n",
				i, rec.Txn, rec.Kind, rec.Entity, rec.Before, rec.After)
		case wal.KindCommit:
			if rec.Entity != 0 {
				fmt.Fprintf(out, "%6d  txn %-6d %-7s mask %#b\n", i, rec.Txn, rec.Kind, rec.Entity)
				continue
			}
			fmt.Fprintf(out, "%6d  txn %-6d %-7s\n", i, rec.Txn, rec.Kind)
		default:
			fmt.Fprintf(out, "%6d  txn %-6d %-7s\n", i, rec.Txn, rec.Kind)
		}
	}
}

// partitionIndex returns k for a file named exactly wal-<k>.log (the
// engine.OpenDurable layout) and 0 for any other name.
func partitionIndex(path string) int {
	k, base := 0, filepath.Base(path)
	if _, err := fmt.Sscanf(base, "wal-%d.log", &k); err != nil ||
		k < 0 || k >= wal.MaxPartitions || base != fmt.Sprintf("wal-%d.log", k) {
		return 0
	}
	return k
}

// recoverSummary classifies one log's transactions with the recovery
// classifier and prints the scan stats and outcome counts. The reader
// sits at partition index k beside empty lower partitions, so a commit
// confined to this log counts as committed while one whose mask names
// other partitions — undecidable from one file — is reported for
// -verify. As in recovery, an unfinished transaction counts as
// incomplete only once it has logged an update; a bare Begin is not
// counted.
func recoverSummary(k int, r *wal.Reader, out *os.File) error {
	readers := make([]*wal.Reader, k+1)
	for i := range readers[:k] {
		readers[i] = wal.NewReader(strings.NewReader(""))
	}
	readers[k] = r
	applied := 0
	stats, err := wal.RecoverSet(readers, func(entity, value int64) { applied++ })
	if err != nil {
		return err
	}
	scan := stats.Logs[k]
	fmt.Fprintf(out, "partition   %d (assumed: wal-<k>.log names k, any other file is 0)\n", k)
	fmt.Fprintf(out, "records     %d (%d commit, %d abort)\n", scan.Records, scan.Committed, scan.Aborted)
	fmt.Fprintf(out, "max txn     %d\n", scan.MaxTxn)
	fmt.Fprintf(out, "torn tail   %v\n", scan.Torn)
	fmt.Fprintf(out, "committed   %d transactions (%d updates would be redone)\n", stats.Committed, applied)
	fmt.Fprintf(out, "aborted     %d\n", stats.Aborted)
	fmt.Fprintf(out, "incomplete  %d with updates (discarded by recovery)\n", stats.Incomplete)
	if cross := stats.CrossPartial + stats.OrderViolations; cross > 0 {
		fmt.Fprintf(out, "cross-part  %d commits name other partitions: needs -verify on the directory\n", cross)
	}
	return nil
}

// runRaw inspects a headerless record stream.
func runRaw(path string, verbose bool, out *os.File) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if verbose {
		dumpRecords(wal.NewReader(f), out)
		if _, err := f.Seek(0, 0); err != nil {
			return err
		}
	}
	return recoverSummary(0, wal.NewReader(f), out)
}

// runLogFile inspects a headered log file written by wal.OpenFile.
func runLogFile(path string, verbose bool, out *os.File) error {
	r, base, closer, err := wal.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "log file    %s (base seq %d)\n", logFileMagic, base)
	if verbose {
		dumpRecords(r, out)
		closer.Close()
		if r, _, closer, err = wal.ReadFile(path); err != nil {
			return err
		}
	}
	defer closer.Close()
	return recoverSummary(partitionIndex(path), r, out)
}

// runSnapshot inspects a checkpoint snapshot file.
func runSnapshot(path string, verbose bool, out *os.File) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := wal.ReadSnapshot(f)
	if err != nil {
		return err
	}
	printSnapshot(s, verbose, out)
	return nil
}

func printSnapshot(s *wal.Snapshot, verbose bool, out *os.File) {
	fmt.Fprintf(out, "snapshot    %s, %d logs, %d entries\n", snapshotMagic, len(s.Seqs), len(s.Entries))
	fmt.Fprintf(out, "seq vector  %v\n", s.Seqs)
	if verbose {
		for _, e := range s.Entries {
			fmt.Fprintf(out, "        entity %-8d = %d\n", e.Entity, e.Value)
		}
	}
}

// runDir inspects a WAL directory: the snapshot header plus one line
// per partition log; with verify it additionally replays the directory
// exactly as engine.OpenDurable would and reports the recovered
// sequence numbers.
func runDir(path string, verbose, verify bool, out *os.File) error {
	// Count the partition logs.
	parts := 0
	for {
		if _, err := os.Stat(filepath.Join(path, fmt.Sprintf("wal-%d.log", parts))); err != nil {
			break
		}
		parts++
	}
	if parts == 0 {
		return fmt.Errorf("%s holds no wal-<k>.log files", path)
	}
	fmt.Fprintf(out, "directory   %s, %d partition logs\n", path, parts)

	snapFile := filepath.Join(path, "snapshot.snap")
	if f, err := os.Open(snapFile); err == nil {
		s, serr := wal.ReadSnapshot(f)
		f.Close()
		if serr != nil {
			fmt.Fprintf(out, "snapshot    CORRUPT: %v\n", serr)
		} else {
			printSnapshot(s, verbose, out)
		}
	} else {
		fmt.Fprintln(out, "snapshot    none")
	}

	for k := 0; k < parts; k++ {
		lp := filepath.Join(path, fmt.Sprintf("wal-%d.log", k))
		r, base, closer, err := wal.ReadFile(lp)
		if err != nil {
			fmt.Fprintf(out, "log %-3d     %v\n", k, err)
			continue
		}
		if verbose {
			fmt.Fprintf(out, "log %d records:\n", k)
			dumpRecords(r, out)
			closer.Close()
			if r, base, closer, err = wal.ReadFile(lp); err != nil {
				return err
			}
		}
		records, torn := 0, false
		for {
			_, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				torn = true
				break
			}
			records++
		}
		closer.Close()
		fmt.Fprintf(out, "log %-3d     base %d, %d records, end seq %d, torn %v\n",
			k, base, records, base+int64(records), torn)
	}

	if !verify {
		return nil
	}
	// Full replay, exactly as engine.OpenDurable does it: snapshot
	// entries first, then every log's tail past the snapshot's sequence
	// vector, under the cross-partition ordering rule.
	d, err := wal.OpenDir(path, parts, wal.WithPreallocate(0))
	if err != nil {
		return err
	}
	defer d.Close()
	applied := 0
	stats, err := d.Recover(func(entity, value int64) { applied++ })
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintf(out, "verify      committed %d (applied %d snapshot+tail updates), aborted %d, incomplete %d\n",
		stats.Committed, applied, stats.Aborted, stats.Incomplete)
	fmt.Fprintf(out, "verify      cross-partition partials %d, order violations %d, max txn %d\n",
		stats.CrossPartial, stats.OrderViolations, stats.MaxTxn)
	fmt.Fprintf(out, "verify      recovered seqs %v\n", d.Set().Seqs())
	return nil
}
