package main

import (
	"granulock/internal/engine"
	"granulock/internal/lockmgr"
)

// The input model is the paper's: a closed population of clients, each
// issuing transactions of size k ~ U(1, maxK) whose entities are placed
// sequentially from a uniform start (the best-placement model) in a
// database of dbSize entities. Every generator owns its random stream,
// so the same (seed, client) pair yields the same operations on every
// commit, in every mode: the untraced window, the traced window, the
// replays and the probes all consume the stream from its beginning.
const (
	dbSize = 4096
	// workPerEntity is the lock-holding computation per entity, in
	// iterations of the engine's spin loop (Txn.Work = workPerEntity·k).
	workPerEntity = 1000
)

// prng is splitmix64. The benchmark owns its generator so that a change
// to the repository's internal/rng cannot change the benchmark's inputs.
type prng struct{ state uint64 }

// newPRNG derives stream number stream of seed.
func newPRNG(seed, stream uint64) *prng {
	p := &prng{state: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
	p.next()
	return p
}

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	x := p.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a uniform integer in [0, n). The modulo bias is below
// 2^-50 for the n used here.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// txnGen generates one client's transaction stream. The returned Txn
// shares the generator's buffer and is valid until the next call, which
// keeps the generator out of the program's allocation count.
type txnGen struct {
	rnd  *prng
	maxK int
	ops  []engine.Op
}

func newTxnGen(seed uint64, client, maxK int) *txnGen {
	return &txnGen{rnd: newPRNG(seed, uint64(client)), maxK: maxK, ops: make([]engine.Op, 0, maxK)}
}

// next returns the client's next transaction: +1/−1 deltas on
// consecutive entity pairs, so every transaction leaves the balance sum
// unchanged, and a read of the last entity when k is odd (k = 1 is a
// read-only transaction).
func (g *txnGen) next() engine.Txn {
	k := 1 + g.rnd.intn(g.maxK)
	start := g.rnd.intn(dbSize - k + 1)
	ops := g.ops[:0]
	for i := 0; i+1 < k; i += 2 {
		ops = append(ops, engine.Op{Entity: start + i, Delta: 1}, engine.Op{Entity: start + i + 1, Delta: -1})
	}
	if k%2 == 1 {
		ops = append(ops, engine.Op{Entity: start + k - 1})
	}
	g.ops = ops
	return engine.Txn{Ops: ops, Work: workPerEntity * k}
}

// updates reports whether t writes anything (and so reaches the log).
func updates(t engine.Txn) bool { return len(t.Ops) > 1 }

// lockSet appends t's granule requests at the given granularity to buf:
// exclusive if any op writes within the granule, shared otherwise —
// what engine.DB computes for Execute. Entities are consecutive, so
// granules are non-decreasing and duplicates are adjacent.
func lockSet(buf []lockmgr.Request, t engine.Txn, granules int) []lockmgr.Request {
	buf = buf[:0]
	for _, op := range t.Ops {
		g := lockmgr.Granule(op.Entity * granules / dbSize)
		mode := lockmgr.ModeShared
		if op.Delta != 0 {
			mode = lockmgr.ModeExclusive
		}
		if n := len(buf); n > 0 && buf[n-1].Granule == g {
			if mode > buf[n-1].Mode {
				buf[n-1].Mode = mode
			}
			continue
		}
		buf = append(buf, lockmgr.Request{Granule: g, Mode: mode})
	}
	return buf
}

// lockGen generates one lock-service client's claim stream over the
// granules [lo, lo+n).
type lockGen struct {
	rnd   *prng
	lo, n int
	reqs  []lockmgr.Request
}

// lockStreamBase separates the lock-service streams from the
// transaction streams of the same seed.
const lockStreamBase = 1 << 20

func newLockGen(seed uint64, client, lo, n int) *lockGen {
	return &lockGen{rnd: newPRNG(seed, lockStreamBase+uint64(client)), lo: lo, n: n}
}

// claim appends count distinct granules to the generator's buffer, each
// exclusive with probability 1/xEvery (always, when xEvery is 1).
// reset starts a new claim; without it the new granules are also
// distinct from the ones already in the buffer (a batch of claims that
// must not wait for one another).
func (g *lockGen) claim(count, xEvery int, reset bool) []lockmgr.Request {
	if reset {
		g.reqs = g.reqs[:0]
	}
	first := len(g.reqs)
	for len(g.reqs) < first+count {
		gr := lockmgr.Granule(g.lo + g.rnd.intn(g.n))
		dup := false
		for _, r := range g.reqs {
			if r.Granule == gr {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		mode := lockmgr.ModeShared
		if g.rnd.intn(xEvery) == 0 {
			mode = lockmgr.ModeExclusive
		}
		g.reqs = append(g.reqs, lockmgr.Request{Granule: gr, Mode: mode})
	}
	return g.reqs[first:]
}

// fnv folds v into an FNV-1a hash.
func fnv(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * 0x100000001b3
		v >>= 8
	}
	return h
}

// streamHash hashes the first n operations of every client's
// transaction and claim streams: the fingerprint of a seed's inputs.
func streamHash(seed uint64, clients, n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for c := 0; c < clients; c++ {
		tg := newTxnGen(seed, c, 32)
		lg := newLockGen(seed, c, 0, dbSize)
		for i := 0; i < n; i++ {
			t := tg.next()
			h = fnv(h, uint64(t.Work))
			for _, op := range t.Ops {
				h = fnv(fnv(h, uint64(op.Entity)), uint64(op.Delta))
			}
			for _, r := range lg.claim(4, 4, true) {
				h = fnv(fnv(h, uint64(r.Granule)), uint64(r.Mode))
			}
		}
	}
	return h
}
