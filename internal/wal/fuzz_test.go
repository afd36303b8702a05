package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReaderNext feeds arbitrary bytes to the log reader: it must never
// panic and must never return a record that fails re-serialization
// round-trip (i.e. whatever it accepts must be internally consistent).
// Seeds: testdata/fuzz/FuzzReaderNext.
func FuzzReaderNext(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			rec, err := r.Next()
			if err != nil {
				return // EOF or corruption: both fine
			}
			// Anything accepted must survive a marshal round trip.
			var buf [recordSize]byte
			rec.marshal(buf[:])
			again, err := unmarshal(buf[:])
			if err != nil || again != rec {
				t.Fatalf("accepted record does not round-trip: %+v", rec)
			}
		}
	})
}

// FuzzRecoverSet runs the recovery classifier over one to three
// arbitrary log images. It must neither panic nor fail hard; it cannot
// classify more transactions than the logs name; and every update it
// redoes must belong to a transaction whose commit record is present in
// every log of its mask — the cross-partition rule, checked here from
// an independent scan of the same bytes. Seeds:
// testdata/fuzz/FuzzRecoverSet (clean one- and two-log sets, a
// cross-partial cut, an order violation, a reused transaction id).
func FuzzRecoverSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, a, b, c []byte) {
		parts := [][]byte{a, b, c}[:n%3+1]

		// Independent evidence: which logs hold a commit record for each
		// transaction, the union of its masks, and its update images.
		type evidence struct{ commits, mask int64 }
		type image struct{ entity, after int64 }
		txns := map[int64]*evidence{}
		images := map[image][]int64{} // update image -> txns that logged it
		for k, p := range parts {
			r := NewReader(bytes.NewReader(p))
			for {
				rec, err := r.Next()
				if err != nil {
					break
				}
				ev := txns[rec.Txn]
				if ev == nil {
					ev = &evidence{}
					txns[rec.Txn] = ev
				}
				switch rec.Kind {
				case KindUpdate:
					im := image{rec.Entity, rec.After}
					images[im] = append(images[im], rec.Txn)
				case KindCommit:
					ev.commits |= 1 << uint(k)
					if rec.Entity != 0 {
						ev.mask |= rec.Entity
					} else {
						ev.mask |= 1 << uint(k)
					}
				}
			}
		}

		readers := make([]*Reader, len(parts))
		for k, p := range parts {
			readers[k] = NewReader(bytes.NewReader(p))
		}
		stats, err := RecoverSet(readers, func(entity, after int64) {
			for _, id := range images[image{entity, after}] {
				if ev := txns[id]; ev.commits != 0 && ev.commits&ev.mask == ev.mask {
					return
				}
			}
			t.Fatalf("redid update (%d -> %d) of no fully committed transaction", entity, after)
		})
		if err != nil {
			t.Fatalf("RecoverSet returned hard error on fuzzed input: %v", err)
		}
		if got := stats.Committed + stats.CrossPartial + stats.OrderViolations + stats.Aborted + stats.Incomplete; got > len(txns) {
			t.Fatalf("classified %d transactions, logs name %d (stats %+v)", got, len(txns), stats)
		}
	})
}

// FuzzDecodeLogHeader feeds arbitrary bytes to the GWALLOG1 header
// decoder, directly and as a file through ReadFile: neither may panic,
// an accepted header must re-encode to the bytes it was read from, the
// two must agree, and the record region behind an accepted header scans
// to a clean end or a torn tail, never a hard error. Seeds:
// testdata/fuzz/FuzzDecodeLogHeader.
func FuzzDecodeLogHeader(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.log")

	f.Fuzz(func(t *testing.T, data []byte) {
		base, derr := decodeLogHeader(data)
		if derr == nil && !bytes.Equal(encodeLogHeader(base), data[:logHeaderSize]) {
			t.Fatalf("accepted header does not re-encode (base %d)", base)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, fbase, c, err := ReadFile(path)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ReadFile err %v, decodeLogHeader err %v", err, derr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected header is not ErrCorrupt: %v", err)
			}
			return
		}
		defer c.Close()
		if fbase != base {
			t.Fatalf("ReadFile base %d, decodeLogHeader base %d", fbase, base)
		}
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record scan: %v", err)
				}
				return
			}
		}
	})
}
