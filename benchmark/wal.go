package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"granulock/internal/engine"
	"granulock/internal/wal"
)

// sinkCounts counts what the write-ahead log asks of its sink. Its
// inject method is a wal.FaultInjector that sees every write and sync
// of every log of the set and fails none.
type sinkCounts struct {
	bytes, syncs atomic.Int64
}

func (s *sinkCounts) inject(op string, n int) (int, error) {
	switch op {
	case "sync":
		s.syncs.Add(1)
	case "write":
		s.bytes.Add(int64(n))
	}
	return n, nil
}

type sinkSnapshot struct{ bytes, syncs int64 }

func (s *sinkCounts) snapshot() sinkSnapshot {
	return sinkSnapshot{s.bytes.Load(), s.syncs.Load()}
}

func (a sinkSnapshot) sub(b sinkSnapshot) sinkSnapshot {
	return sinkSnapshot{a.bytes - b.bytes, a.syncs - b.syncs}
}

// userBytesPerUpdate is the user data one entity update carries: the
// entity's number and its new value.
const userBytesPerUpdate = 16

// walSinkMetrics derives the sink-level metrics from what the sink was
// asked to do while commits update transactions, carrying updates
// entity updates between them, were acknowledged.
func walSinkMetrics(vs values, io sinkSnapshot, commits, updates int64) {
	if commits == 0 || updates == 0 {
		return
	}
	vs["wal.syncs_per_commit"] = float64(io.syncs) / float64(commits)
	vs["wal.bytes_per_commit"] = float64(io.bytes) / float64(commits)
	vs["wal.write_amp"] = float64(io.bytes) / float64(updates*userBytesPerUpdate)
}

// commitGroups builds the record groups engine.DB hands wal.Set.Commit
// for transaction t under node-keyed placement: per touched partition a
// begin record, that partition's updates and a commit record carrying
// the full partition mask, in ascending partition order.
func commitGroups(t engine.Txn, id int64, records []wal.Record, groups []wal.PartGroup) ([]wal.Record, []wal.PartGroup) {
	records, groups = records[:0], groups[:0]
	var mask int64
	for _, op := range t.Ops {
		if op.Delta != 0 {
			mask |= 1 << uint(op.Entity%engineNodes)
		}
	}
	for p := 0; p < engineNodes; p++ {
		if mask&(1<<uint(p)) == 0 {
			continue
		}
		start := len(records)
		records = append(records, wal.Record{Kind: wal.KindBegin, Txn: id})
		for _, op := range t.Ops {
			if op.Delta != 0 && op.Entity%engineNodes == p {
				records = append(records, wal.Record{Kind: wal.KindUpdate, Txn: id, Entity: int64(op.Entity), Before: initialValue, After: initialValue + op.Delta})
			}
		}
		records = append(records, wal.Record{Kind: wal.KindCommit, Txn: id, Entity: mask})
		groups = append(groups, wal.PartGroup{Part: p, Records: records[start:len(records):len(records)]})
	}
	return records, groups
}

// walRate is an upper guess of group commits per second, used only to
// size recorders.
const walRate = 40e3

// replayWAL replays engine-durable's commit groups into the Set of a
// bare wal.OpenDir with the engine's partition count and the workload's
// flush interval, first from
// engineClients committers and then from one (ROADMAP 5b's case), and
// measures the device floor under them: a bare 4 KiB append + fsync in
// the same directory, so that a sandbox whose fsyncs are free, or slow,
// is visible as such.
func replayWAL(cfg runCfg, vs values) (err error) {
	dir, err := os.MkdirTemp(cfg.dir, "walreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := wal.OpenDir(dir, engineNodes, wal.WithFlushInterval(durableLinger))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}()
	set := d.Set()
	var ids atomic.Int64
	committers := func(n int) (window, error) {
		var failed atomic.Pointer[error]
		dur := cfg.probeWindow()
		w := runWindow(n, dur, expectOps(walRate, dur, n), func(c int, stop *atomic.Bool, rec *recorder) {
			g := newTxnGen(cfg.seed, c, engineDurable.maxK)
			// A group must hold every record: a reallocation would
			// leave earlier groups pointing at a stale array.
			records := make([]wal.Record, 0, engineDurable.maxK+2*engineNodes)
			var groups []wal.PartGroup
			for !stop.Load() {
				t := g.next()
				if !updates(t) {
					continue
				}
				records, groups = commitGroups(t, ids.Add(1), records, groups)
				start := rec.now()
				err := set.Commit(groups)
				rec.done(start, err)
				if err != nil {
					failed.CompareAndSwap(nil, &err)
					return
				}
			}
		})
		if p := failed.Load(); p != nil {
			return w, fmt.Errorf("wal replay with %d committers: %w", n, *p)
		}
		return w, nil
	}
	many, err := committers(engineClients)
	if err != nil {
		return err
	}
	lats := pooledLats(many)
	vs["wal.commit_us_p50"] = float64(quantile(lats, 0.5)) * usPerNs
	vs["wal.commit_us_p99"] = float64(quantile(lats, 0.99)) * usPerNs
	one, err := committers(1)
	if err != nil {
		return err
	}
	vs["wal.commit_us_p50.c1"] = float64(quantile(pooledLats(one), 0.5)) * usPerNs

	floor, err := fsyncFloor(filepath.Join(dir, "floor.dat"), cfg.probeWindow()/2)
	if err != nil {
		return err
	}
	vs["wal.fsync_us_p50"] = floor
	return nil
}

// fsyncFloor appends 4 KiB blocks to a fresh file, syncing each, for
// about dur (at least 20 times), and returns the median append+Sync time
// in microseconds.
func fsyncFloor(path string, dur time.Duration) (float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	block := make([]byte, 4096)
	var lats []int64
	for start := time.Now(); len(lats) < 20 || time.Since(start) < dur; {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lats = append(lats, int64(time.Since(t0)))
	}
	slices.Sort(lats)
	return float64(quantile(lats, 0.5)) * usPerNs, f.Close()
}
