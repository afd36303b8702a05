package lockmgr

import "testing"

func TestDetectorEmptyGraph(t *testing.T) {
	d := NewDetector()
	if d.InCycle(1) {
		t.Fatal("cycle in empty graph")
	}
	if d.Edges() != 0 {
		t.Fatal("edges in empty graph")
	}
}

func TestDetectorSelfEdgeIgnored(t *testing.T) {
	d := NewDetector()
	d.AddEdge(1, 1)
	if d.Edges() != 0 || d.InCycle(1) {
		t.Fatal("self edge recorded")
	}
}

func TestDetectorSimpleCycle(t *testing.T) {
	d := NewDetector()
	d.AddEdge(1, 2)
	if d.InCycle(1) || d.InCycle(2) {
		t.Fatal("false positive on single edge")
	}
	d.AddEdge(2, 1)
	if !d.InCycle(1) || !d.InCycle(2) {
		t.Fatal("two-cycle not detected")
	}
}

func TestDetectorLongCycle(t *testing.T) {
	d := NewDetector()
	const n = 100
	for i := TxnID(1); i < n; i++ {
		d.AddEdge(i, i+1)
	}
	if d.InCycle(1) {
		t.Fatal("false positive on chain")
	}
	d.AddEdge(n, 1)
	for i := TxnID(1); i <= n; i++ {
		if !d.InCycle(i) {
			t.Fatalf("txn %d not seen in %d-cycle", i, n)
		}
	}
}

func TestDetectorBranchingNoCycle(t *testing.T) {
	// A DAG with heavy fan-out must not report cycles.
	d := NewDetector()
	for i := TxnID(1); i <= 10; i++ {
		for j := i + 1; j <= 10; j++ {
			d.AddEdge(i, j)
		}
	}
	for i := TxnID(1); i <= 10; i++ {
		if d.InCycle(i) {
			t.Fatalf("false cycle at %d in DAG", i)
		}
	}
}

func TestDetectorCycleNotInvolvingQuery(t *testing.T) {
	// 2<->3 cycle exists, but 1 only points into it: 1 is not deadlocked.
	d := NewDetector()
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	d.AddEdge(3, 2)
	if d.InCycle(1) {
		t.Fatal("txn outside the cycle reported deadlocked")
	}
	if !d.InCycle(2) || !d.InCycle(3) {
		t.Fatal("cycle members not detected")
	}
}

func TestDetectorRemoveWaiter(t *testing.T) {
	d := NewDetector()
	d.AddEdge(1, 2)
	d.AddEdge(2, 1)
	d.RemoveWaiter(2)
	if d.InCycle(1) {
		t.Fatal("cycle survives waiter removal")
	}
	if d.Edges() != 1 {
		t.Fatalf("edges = %d, want 1", d.Edges())
	}
}

func TestDetectorRemoveTxn(t *testing.T) {
	d := NewDetector()
	d.AddEdge(1, 2)
	d.AddEdge(3, 2)
	d.AddEdge(2, 1)
	d.RemoveTxn(2)
	if d.Edges() != 0 {
		t.Fatalf("edges = %d after RemoveTxn, want 0", d.Edges())
	}
	if d.InCycle(1) || d.InCycle(3) {
		t.Fatal("phantom cycle after RemoveTxn")
	}
}

func TestDetectorMultipleBlockers(t *testing.T) {
	// A writer waiting on two shared holders: cycle through either path.
	d := NewDetector()
	d.AddEdge(1, 2)
	d.AddEdge(1, 3)
	d.AddEdge(3, 1)
	if !d.InCycle(1) {
		t.Fatal("cycle through second blocker missed")
	}
}

func TestDetectorEdgeCounter(t *testing.T) {
	d := NewDetector()
	d.AddEdge(1, 2)
	d.AddEdge(1, 2) // duplicate: not double-counted
	d.AddEdge(1, 3)
	d.AddEdge(2, 3)
	d.AddEdge(3, 3) // self-edge: ignored
	if got := d.Edges(); got != 3 {
		t.Fatalf("Edges = %d, want 3", got)
	}
	d.RemoveWaiter(1)
	if got := d.Edges(); got != 1 {
		t.Fatalf("Edges after RemoveWaiter = %d, want 1", got)
	}
	d.AddEdge(1, 3)
	d.RemoveTxn(3) // removes 1→3 and 2→3
	if got := d.Edges(); got != 0 {
		t.Fatalf("Edges after RemoveTxn = %d, want 0", got)
	}
}

func BenchmarkInCycle(b *testing.B) {
	d := NewDetector()
	for i := TxnID(1); i < 1000; i++ {
		d.AddEdge(i, i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InCycle(1)
	}
}
