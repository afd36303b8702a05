package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"granulock/internal/rng"
)

// traceOp is one step of a recorded lock trace. The trace is executed
// sequentially on a single goroutine (parked requests run on helpers but
// every op waits for a quiescent table before the next begins), so the
// outcome of every step is deterministic.
type traceOp struct {
	kind string // "claim", "step", "release"
	txn  TxnID
	reqs []Request // claim
	g    Granule   // step
	mode Mode      // step
}

// outcome classifies how a trace op resolved.
type outcome string

const (
	outGranted  outcome = "granted"
	outParked   outcome = "parked-then-granted"
	outDeadlock outcome = "deadlock"
	outAlready  outcome = "already-holds"
)

// runTrace replays ops on tab and returns, per op, its outcome and the
// table's occupancy (holders, locked granules, parked waiters) once the
// op has settled. Ops that park are unblocked by later releases in the
// trace; the generator guarantees every parked request is eventually
// released, so the replay always terminates. An optional beforeOp hook
// runs before each op is issued (used to toggle the fast path
// mid-trace).
func runTrace(t *testing.T, tab *Table, ops []traceOp, beforeOp ...func(i int, tab *Table)) []string {
	t.Helper()
	ctx := context.Background()
	type pending struct {
		idx int
		ch  chan error
	}
	var parked []pending
	results := make([]string, len(ops))
	occupancy := make([]string, len(ops))
	record := func(idx int, err error) {
		switch {
		case err == nil:
			if results[idx] == string(outParked) {
				return // already classified at park time
			}
			results[idx] = string(outGranted)
		case errors.Is(err, ErrDeadlock):
			results[idx] = string(outDeadlock)
		case errors.Is(err, ErrAlreadyHolds):
			results[idx] = string(outAlready)
		default:
			t.Fatalf("op %d: unexpected error %v", idx, err)
		}
	}
	// sweep drains any parked channels that resolved as a side effect of
	// the last op (a release granting them, or a deadlock sync aborting
	// them). Late deliveries are caught by a later sweep or the final
	// drain; recording order does not matter because outcomes are stored
	// per op index.
	sweep := func() {
		still := parked[:0]
		for _, p := range parked {
			select {
			case err := <-p.ch:
				record(p.idx, err)
			default:
				still = append(still, p)
			}
		}
		parked = still
	}
	for i, op := range ops {
		for _, hook := range beforeOp {
			hook(i, tab)
		}
		switch op.kind {
		case "claim", "step":
			ch := make(chan error, 1)
			go func(op traceOp) {
				if op.kind == "claim" {
					ch <- tab.AcquireAll(ctx, op.txn, op.reqs)
				} else {
					ch <- tab.Acquire(ctx, op.txn, op.g, op.mode)
				}
			}(op)
			// The trace is sequential: an op either resolves promptly or
			// parks until a later release. 15ms is orders of magnitude
			// above an immediate grant's latency.
			select {
			case err := <-ch:
				record(i, err)
			case <-time.After(15 * time.Millisecond):
				results[i] = string(outParked)
				parked = append(parked, pending{idx: i, ch: ch})
			}
		case "release":
			tab.ReleaseAll(op.txn)
		default:
			t.Fatalf("op %d: unknown kind %q", i, op.kind)
		}
		time.Sleep(time.Millisecond)
		sweep()
		occupancy[i] = fmt.Sprintf(" [holders %d, granules %d, waiters %d]",
			tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount())
	}
	// Drain: repeatedly release every txn until no op remains parked. A
	// single pass is not enough — a waiter granted mid-pass becomes a
	// new holder whose release slot has already gone by, re-parking the
	// ops queued behind it.
	deadline := time.Now().Add(10 * time.Second)
	for len(parked) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d ops still parked after drain", len(parked))
		}
		for _, op := range ops {
			tab.ReleaseAll(op.txn)
		}
		time.Sleep(time.Millisecond)
		sweep()
	}
	for _, op := range ops {
		tab.ReleaseAll(op.txn)
	}
	if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h != 0 || g != 0 || w != 0 {
		t.Fatalf("after trace drain: %d holders, %d locked granules, %d waiters", h, g, w)
	}
	for i := range results {
		results[i] += occupancy[i]
	}
	return results
}

// traceGranules is the granule domain of the generated claims;
// incremental steps stay on the first traceHot of them so that
// waits-for cycles actually form.
const (
	traceGranules = 256
	traceHot      = 12
)

// intentionModes are the modes a FAST word cannot carry.
var intentionModes = [...]Mode{ModeIS, ModeIX, ModeSIX}

// genClaim draws one conservative request set the way a careless caller
// would send it: 2…64 requests (mostly few) in no order, S and X mixed
// with the occasional intention mode, and granules named twice in
// differing modes.
func genClaim(src *rng.Source) []Request {
	k := 2 + src.Intn(7)
	switch roll := src.Float64(); {
	case roll < 0.05:
		k = 33 + src.Intn(32)
	case roll < 0.20:
		k = 9 + src.Intn(24)
	}
	rs := make([]Request, 0, k)
	for len(rs) < k {
		m := ModeShared
		if src.Bernoulli(0.4) {
			m = ModeExclusive
		}
		if src.Bernoulli(0.1) {
			m = intentionModes[src.Intn(len(intentionModes))]
		}
		if len(rs) > 0 && src.Bernoulli(0.15) {
			rs = append(rs, Request{Granule: rs[src.Intn(len(rs))].Granule, Mode: m})
			continue
		}
		rs = append(rs, Request{Granule: Granule(src.Intn(traceGranules)), Mode: m})
	}
	return rs
}

// genTrace generates a deterministic mixed trace: multi-granule
// conservative claims (genClaim, plus a claim of the whole table,
// descending, first thing — its release is what makes every granule
// eligible for lock-free grants — and again halfway through, into the
// traffic), incremental steps in all five modes — S then IX on one
// granule among them, the upgrade whose result, SIX, is neither — and
// releases over a small granule set (so parks and conflicts actually
// happen). Each txn
// id is used for exactly one transaction, and every transaction uses
// exactly one protocol — conservative (claim) or incremental (steps) —
// matching the table's contract. (A txn mixing protocols could observe
// duplicate-claim failures at different times depending on which
// release sweeps its parked claim; no real caller mixes them.)
func genTrace(seed uint64, n int) []traceOp {
	src := rng.New(seed)
	var ops []traceOp
	var consActive, incActive []TxnID
	next := TxnID(1)
	wholeTable := func() {
		rs := make([]Request, traceGranules)
		for i := range rs {
			rs[i] = Request{Granule: Granule(traceGranules - 1 - i), Mode: Mode(i % 2)}
		}
		ops = append(ops, traceOp{kind: "claim", txn: next, reqs: rs})
		next++
	}
	wholeTable()
	ops = append(ops, traceOp{kind: "release", txn: next - 1})
	again := true
	for len(ops) < n {
		roll := src.Float64()
		switch {
		case again && len(ops) >= n/2:
			again = false
			wholeTable()
			consActive = append(consActive, next-1)
		case roll < 0.40:
			ops = append(ops, traceOp{kind: "claim", txn: next, reqs: genClaim(src)})
			consActive = append(consActive, next)
			next++
		case roll < 0.60:
			// Incremental step: extend an existing incremental txn or
			// start a new one.
			var txn TxnID
			if len(incActive) > 0 && src.Bernoulli(0.7) {
				txn = incActive[src.Intn(len(incActive))]
			} else {
				txn = next
				next++
				incActive = append(incActive, txn)
			}
			m := ModeShared
			if src.Bernoulli(0.5) {
				m = ModeExclusive
			}
			g := Granule(src.Intn(traceHot))
			switch roll := src.Float64(); {
			case roll < 0.25:
				m = intentionModes[src.Intn(len(intentionModes))]
			case roll < 0.35:
				ops = append(ops, traceOp{kind: "step", txn: txn, g: g, mode: ModeShared})
				m = ModeIX
			}
			ops = append(ops, traceOp{kind: "step", txn: txn, g: g, mode: m})
		case len(consActive)+len(incActive) > 0:
			i := src.Intn(len(consActive) + len(incActive))
			var txn TxnID
			if i < len(consActive) {
				txn = consActive[i]
				consActive = append(consActive[:i], consActive[i+1:]...)
			} else {
				i -= len(consActive)
				txn = incActive[i]
				incActive = append(incActive[:i], incActive[i+1:]...)
			}
			ops = append(ops, traceOp{kind: "release", txn: txn})
		}
	}
	// Close out: release everything still active so parked ops resolve.
	for _, txn := range append(consActive, incActive...) {
		ops = append(ops, traceOp{kind: "release", txn: txn})
	}
	return ops
}

// traceHashes pin what the table decides on genTrace(seed, 120): the
// FNV-64a hash of runTrace's per-op outcome and occupancy strings with
// the fast path off (hashTrace). They were recorded on the striped
// table this one replaced, at one stripe, so a replay that reproduces
// them makes every grant, park, deadlock and duplicate decision that
// table made.
var traceHashes = map[uint64]uint64{
	1:        0xd387fab4111223d8,
	42:       0x96755ad9d90f58ec,
	20260805: 0xd11400fd2ed67671,
}

// hashTrace is the FNV-64a hash of runTrace's results, one per line.
func hashTrace(results []string) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// traceSeeds are the seeds of the pinned traces.
var traceSeeds = []uint64{1, 42, 20260805}

// checkTraceHash fails the test unless results hash to seed's pin.
func checkTraceHash(t *testing.T, variant string, seed uint64, results []string) {
	t.Helper()
	if got, want := hashTrace(results), traceHashes[seed]; got != want {
		t.Fatalf("%s: trace hash %#016x, pinned %#016x; decisions:\n%s", variant, got, want, strings.Join(results, "\n"))
	}
}

// TestShardEquivalenceOnTrace pins the one-latch table to the striped
// table it replaced. That table decided every op of these traces the
// same at 1, 4 and 16 stripes, and its one-stripe decisions are
// traceHashes, which a replay with the fast path off must reproduce.
// The name is historical: no stripes are compared any more, only the
// fast-off replay against the pinned hash.
func TestShardEquivalenceOnTrace(t *testing.T) {
	for _, seed := range traceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkTraceHash(t, "fast-off", seed, runTrace(t, NewTable(WithFastPath(false)), genTrace(seed, 120)))
		})
	}
}

// TestFastPathEquivalenceOnTrace is the fast path's golden pin: a
// recorded trace replayed with the lock-free fast path force-enabled
// and randomly toggled mid-trace must yield the same grant / park /
// deadlock / duplicate decisions and the same occupancy after every
// operation as with it force-disabled.
//
// The strict subtest axis is historical: it once chose the table's
// strict arrival-order option, which is gone. It now chooses the check. With
// strict=false each replay is compared op by op with a fast-off replay,
// so a divergence names its op; with strict=true each must reproduce the
// pinned hash by itself.
// The fast path is a grant-mechanism detail; it must never change which
// requests conflict — a lock-free grant, of one word or a batch, is
// only taken in states where the map path would have granted
// immediately, and the demote/promote protocol forbids fast grants
// wherever a waiter or parked claim could be overtaken.
func TestFastPathEquivalenceOnTrace(t *testing.T) {
	for _, seed := range traceSeeds {
		for _, strict := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/strict=%v", seed, strict), func(t *testing.T) {
				ops := genTrace(seed, 120)
				check := func(variant string, got []string) {
					t.Helper()
					checkTraceHash(t, variant, seed, got)
				}
				if !strict {
					base := runTrace(t, NewTable(WithFastPath(false)), ops)
					check = func(variant string, got []string) {
						t.Helper()
						for i := range base {
							if got[i] != base[i] {
								t.Fatalf("%s: op %d (%s txn %d) decided %q, fast-off decided %q",
									variant, i, ops[i].kind, ops[i].txn, got[i], base[i])
							}
						}
					}
				}
				on := NewTable(WithFastPath(true))
				check("fast-on", runTrace(t, on, ops))
				t.Logf("fast-on: %+v", on.FastStats())
				if fp := on.FastStats(); fp.Grants == 0 || fp.Fallbacks == 0 {
					t.Fatalf("the trace should both grant and fall back on the fast path, got %+v", fp)
				}
				// Random mid-trace toggling: every op may run against
				// fast words left behind by earlier fast-enabled ops,
				// exercising the lazy demotion protocol.
				src := rng.New(seed ^ 0xdead)
				toggle := func(_ int, tab *Table) { tab.SetFastPath(src.Bernoulli(0.5)) }
				check("fast-toggled", runTrace(t, NewTable(), ops, toggle))
			})
		}
	}
}
