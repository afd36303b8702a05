// Package ring implements the static consistent-hash ring that
// partitions the granule namespace across lock-service nodes. Each node
// projects a fixed number of virtual points onto a 64-bit hash circle;
// a granule belongs to the node owning the first point at or after the
// granule's hash. Virtual points smooth the partition sizes (with one
// point per node a two-node ring can split 90/10; with the default 64
// the imbalance stays within a few percent) and keep the amount of
// keyspace that moves when the ring grows proportional to 1/N.
//
// The ring is static configuration: every node and every client of a
// cluster must construct it from the same ordered node count, or they
// will disagree about ownership. Ownership disputes are self-correcting
// at the protocol level (a node redirects requests for granules it does
// not serve), but a persistent mismatch turns every request into a
// redirect, so the vnode count is a package constant rather than a
// per-process tunable.
package ring

import "sort"

// DefaultVNodes is the virtual-point count per node. 64 keeps the largest/smallest
// partition ratio under ~1.3 for small clusters while the ring stays a
// few hundred entries — binary-searchable in a handful of cache lines.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring over n nodes. Methods are
// safe for concurrent use.
type Ring struct {
	n      int
	points []point // sorted ascending by hash
}

// point is one virtual node: a position on the hash circle and the
// node that owns the arc ending there.
type point struct {
	hash uint64
	node int
}

// New builds a ring over n nodes (numbered 0..n-1) with DefaultVNodes
// virtual points each. n must be at least 1.
func New(n int) *Ring {
	if n < 1 {
		panic("ring: need at least one node")
	}
	const v = DefaultVNodes
	r := &Ring{n: n, points: make([]point, 0, n*v)}
	for node := 0; node < n; node++ {
		for rep := 0; rep < v; rep++ {
			// Each virtual point hashes (node, replica) salted into a
			// separate domain from the key space: without the salt,
			// node 0's inputs are the raw values 0..v-1, and any granule
			// id below v hashes to exactly its vnode point — landing
			// every small id on node 0.
			h := mix(vnodeSalt ^ (uint64(node)<<32 | uint64(rep)&0xffffffff))
			r.points = append(r.points, point{hash: h, node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break so every process sorts identically.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns how many nodes the ring was built over.
func (r *Ring) Nodes() int { return r.n }

// Owner returns the node that owns key: the node of the first virtual
// point at or after the key's hash, wrapping at the top of the circle.
func (r *Ring) Owner(key uint64) int {
	h := mix(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Successor returns the standby for node: the next node index on the
// static ring order. When a node dies, its whole partition fails over
// to its successor; the scheme tolerates one failure at a time (a
// second concurrent failure of the successor is out of scope for the
// static ring).
func (r *Ring) Successor(node int) int { return (node + 1) % r.n }

// vnodeSalt keeps virtual-point hash inputs disjoint from granule
// keys (which are mixed raw). Arbitrary odd constant; changing it
// re-partitions every cluster, so it is part of the wire-compatible
// ring definition.
const vnodeSalt = 0x5bd1e9955bd1e995

// mix is the shared 64-bit hash for keys and virtual points: FNV-1a
// over the value's 8 big-endian bytes, followed by an avalanche step
// (splitmix64 finalizer) so near-sequential granule ids spread across
// the circle instead of clustering on one arc.
func mix(v uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (v >> uint(shift)) & 0xff
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
