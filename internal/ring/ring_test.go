package ring

import "testing"

// Two rings built from the same node count must agree on every key:
// server and client construct the ring independently.
func TestDeterministicAcrossInstances(t *testing.T) {
	a := New(4)
	b := New(4)
	for key := uint64(0); key < 10000; key++ {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %d: owner %d vs %d", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestOwnerInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		r := New(n)
		for key := uint64(0); key < 5000; key++ {
			o := r.Owner(key)
			if o < 0 || o >= n {
				t.Fatalf("n=%d key=%d: owner %d out of range", n, key, o)
			}
		}
	}
}

// Sequential granule ids must spread across nodes, not cluster on one
// arc — the whole point of the avalanche step.
func TestBalance(t *testing.T) {
	const keys = 100000
	for _, n := range []int{2, 4} {
		r := New(n)
		counts := make([]int, n)
		for key := uint64(0); key < keys; key++ {
			counts[r.Owner(key)]++
		}
		want := keys / n
		for node, c := range counts {
			if c < want/2 || c > want*2 {
				t.Fatalf("n=%d node %d owns %d of %d keys (want near %d)", n, node, c, keys, want)
			}
		}
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := New(1)
	for key := uint64(0); key < 1000; key++ {
		if r.Owner(key) != 0 {
			t.Fatalf("single-node ring routed key %d to node %d", key, r.Owner(key))
		}
	}
	if r.Successor(0) != 0 {
		t.Fatalf("single-node successor = %d", r.Successor(0))
	}
}

func TestSuccessorWraps(t *testing.T) {
	r := New(3)
	if got := r.Successor(2); got != 0 {
		t.Fatalf("Successor(2) = %d, want 0", got)
	}
	if got := r.Successor(0); got != 1 {
		t.Fatalf("Successor(0) = %d, want 1", got)
	}
}

// Regression: vnode points used to hash the raw (node, replica) pair,
// so node 0's points occupied the exact hash slots of keys 0..v-1 and
// every small granule id resolved to node 0. With domain-separated
// point hashing, small sequential ids must spread across nodes.
func TestSmallKeysNotCaptured(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		r := New(n)
		counts := make([]int, n)
		for key := uint64(0); key < uint64(DefaultVNodes); key++ {
			counts[r.Owner(key)]++
		}
		for node, c := range counts {
			if c == DefaultVNodes {
				t.Fatalf("n=%d: node %d captured all %d small keys", n, node, c)
			}
		}
		if counts[0] == 0 {
			t.Fatalf("n=%d: node 0 owns no small keys: %v", n, counts)
		}
	}
}
