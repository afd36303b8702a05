package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSink counts Write and Sync calls; optionally fails after a
// budget.
type countingSink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	syncs  int
	// failSyncAfter fails every Sync once syncs reaches it (0 = never).
	failSyncAfter int
	// failWrite fails every Write when set.
	failWrite bool
}

func (s *countingSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failWrite {
		return 0, errors.New("injected write failure")
	}
	s.writes++
	return s.buf.Write(p)
}

func (s *countingSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	if s.failSyncAfter > 0 && s.syncs >= s.failSyncAfter {
		return errors.New("injected sync failure")
	}
	return nil
}

func (s *countingSink) stats() (writes, syncs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.syncs
}

func (s *countingSink) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func TestLogCommitDurableAndOrdered(t *testing.T) {
	sink := &countingSink{}
	l := NewLog(sink)
	for txn := int64(1); txn <= 3; txn++ {
		err := l.Commit([]Record{
			{Kind: KindBegin, Txn: txn},
			{Kind: KindUpdate, Txn: txn, Entity: txn, Before: 0, After: txn},
			{Kind: KindCommit, Txn: txn},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Seq(); got != 9 {
		t.Fatalf("Seq = %d, want 9", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(sink.bytes()))
	state := map[int64]int64{}
	stats, err := RecoverSet([]*Reader{r}, func(e, v int64) { state[e] = v })
	if err != nil || stats.Committed != 3 {
		t.Fatalf("recover: %+v, %v", stats, err)
	}
	for e := int64(1); e <= 3; e++ {
		if state[e] != e {
			t.Fatalf("entity %d = %d", e, state[e])
		}
	}
	// Every commit waited for durability, so each cohort needed a sync,
	// but never more than one per commit.
	if _, syncs := sink.stats(); syncs < 1 || syncs > 3 {
		t.Fatalf("syncs = %d", syncs)
	}
}

func TestLogGroupCommitCoalesces(t *testing.T) {
	// Many concurrent committers on a slow-sync sink must share
	// flushes: total syncs well under one per commit.
	sink := &slowSink{delay: 2 * time.Millisecond}
	l := NewLog(sink, WithFlushInterval(500*time.Microsecond))
	const committers = 16
	const commitsEach = 8
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < commitsEach; i++ {
				txn := int64(c*commitsEach + i + 1)
				err := l.Commit([]Record{
					{Kind: KindBegin, Txn: txn},
					{Kind: KindCommit, Txn: txn},
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	syncs := atomic.LoadInt64(&sink.syncs)
	total := int64(committers * commitsEach)
	if syncs >= total {
		t.Fatalf("no batching: %d syncs for %d commits", syncs, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// All records present and intact.
	stats, err := recoverBytes(sink.buf(), func(int64, int64) {})
	if err != nil || int64(stats.Committed) != total {
		t.Fatalf("recover: %+v, %v", stats, err)
	}
}

// slowSink simulates a sync-cost-bearing device.
type slowSink struct {
	mu    sync.Mutex
	b     bytes.Buffer
	delay time.Duration
	syncs int64
}

func (s *slowSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *slowSink) Sync() error {
	atomic.AddInt64(&s.syncs, 1)
	time.Sleep(s.delay)
	return nil
}

func (s *slowSink) buf() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

func TestLogFailedFlushPoisonsAndFailsCohort(t *testing.T) {
	sink := &countingSink{failSyncAfter: 1}
	l := NewLog(sink)
	err := l.Commit([]Record{{Kind: KindBegin, Txn: 1}, {Kind: KindCommit, Txn: 1}})
	if err == nil {
		t.Fatal("commit acked despite failed sync")
	}
	var fe *FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T %v, want *FlushError", err, err)
	}
	if fe.Op != "sync" {
		t.Fatalf("op %q", fe.Op)
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatal("FlushError does not match ErrPoisoned")
	}
	// Later commits fail fast with the same poison.
	if err := l.Commit([]Record{{Kind: KindBegin, Txn: 2}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("post-poison commit: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close: %v", err)
	}
}

func TestLogFailedWritePoisons(t *testing.T) {
	sink := &countingSink{failWrite: true}
	l := NewLog(sink)
	err := l.Commit([]Record{{Kind: KindBegin, Txn: 1}})
	var fe *FlushError
	if !errors.As(err, &fe) || fe.Op != "write" {
		t.Fatalf("error %v, want write FlushError", err)
	}
}

func TestLogCommitAfterClose(t *testing.T) {
	l := NewLog(&bytes.Buffer{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]Record{{Kind: KindBegin, Txn: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
}

func TestLogCloseDrainsQueue(t *testing.T) {
	// Commits racing Close must either complete durably or report
	// ErrClosed — never silently vanish while reporting success.
	sink := &countingSink{}
	l := NewLog(sink)
	var acked int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := int64(c*50 + i + 1)
				err := l.Commit([]Record{{Kind: KindBegin, Txn: txn}, {Kind: KindCommit, Txn: txn}})
				if err == nil {
					atomic.AddInt64(&acked, 1)
				} else if !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected commit error: %v", err)
				}
			}
		}(c)
	}
	time.Sleep(time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	stats, err := recoverBytes(sink.bytes(), func(int64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	if int64(stats.Committed) < atomic.LoadInt64(&acked) {
		t.Fatalf("%d commits acked but only %d recovered", acked, stats.Committed)
	}
}

func TestLogEmptyCommitIsNoop(t *testing.T) {
	l := NewLog(&bytes.Buffer{})
	if err := l.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 0 {
		t.Fatal("empty commit advanced seq")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogTornWritePoisonsWithoutAdvancingSeq(t *testing.T) {
	// A flush whose write reaches the sink only partially must not count
	// its records as durable, and must poison the log: any later append
	// would interleave with the torn bytes.
	l := NewLog(&flakyWriter{failAt: 2})
	if err := l.Commit([]Record{{Kind: KindBegin, Txn: 1}, {Kind: KindCommit, Txn: 1}}); err != nil {
		t.Fatal(err)
	}
	err := l.Commit([]Record{
		{Kind: KindBegin, Txn: 2},
		{Kind: KindUpdate, Txn: 2, Entity: 1, After: 2},
		{Kind: KindCommit, Txn: 2},
	})
	var fe *FlushError
	if !errors.As(err, &fe) || fe.Op != "write" {
		t.Fatalf("error %v, want write FlushError", err)
	}
	if got := l.Seq(); got != 2 {
		t.Fatalf("Seq = %d after a torn second flush, want 2", got)
	}
	// Every later commit fails fast with the original cause.
	later := l.Commit([]Record{{Kind: KindBegin, Txn: 3}})
	if !errors.Is(later, ErrPoisoned) || !strings.Contains(later.Error(), "disk full at write 2") {
		t.Fatalf("post-poison commit: %v", later)
	}
	if got := l.Seq(); got != 2 {
		t.Fatalf("Seq moved after poison: %d", got)
	}
}

// flakyWriter fails the Nth write (1-based) and every write after it.
type flakyWriter struct {
	n      int
	failAt int
}

func (f *flakyWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n >= f.failAt {
		return len(p) / 2, fmt.Errorf("disk full at write %d", f.n)
	}
	return len(p), nil
}

func TestReaderChunkedMatchesRecordStream(t *testing.T) {
	// The buffered reader must produce exactly the same records as the
	// source stream regardless of how the source fragments reads.
	var want []Record
	for i := int64(1); i <= 5000; i++ {
		want = append(want, Record{Kind: KindUpdate, Txn: i, Entity: i % 97, Before: i - 1, After: i})
	}
	r := NewReader(&fragmentedReader{data: logBytes(t, want)})
	for i, wr := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wr {
			t.Fatalf("record %d: %+v != %+v", i, got, wr)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("tail: %v", err)
	}
}

// fragmentedReader returns at most a few bytes per Read, in a cycle of
// awkward sizes, to exercise the Reader's compaction/refill logic.
type fragmentedReader struct {
	data []byte
	pos  int
	step int
}

func (f *fragmentedReader) Read(p []byte) (int, error) {
	if f.pos >= len(f.data) {
		return 0, io.EOF
	}
	sizes := []int{1, 7, 36, 38, 64, 3}
	n := sizes[f.step%len(sizes)]
	f.step++
	if n > len(p) {
		n = len(p)
	}
	if n > len(f.data)-f.pos {
		n = len(f.data) - f.pos
	}
	copy(p, f.data[f.pos:f.pos+n])
	f.pos += n
	return n, nil
}
