package sim

import "testing"

// churnDelay is a tiny deterministic LCG over (0, 1]; benchmarks must
// not depend on math/rand ordering across Go versions.
type churnDelay uint64

func (c *churnDelay) next() float64 {
	*c = *c*6364136223846793005 + 1442695040888963407
	return float64(uint64(*c)>>40)/float64(1<<24) + 1e-9
}

// BenchmarkEngineChurn is the raw event-loop microbenchmark: a
// standing population of events where every fired event schedules one
// replacement, so each iteration is exactly one schedule + one
// dispatch. In steady state a pooled engine does this
// with zero allocations.
func BenchmarkEngineChurn(b *testing.B) {
	var e Engine
	var rng churnDelay = 1
	var fn func()
	fn = func() { e.After(rng.next(), fn) }
	const pop = 1024
	for i := 0; i < pop; i++ {
		e.At(rng.next(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineCancelChurn exercises the cancel path: each iteration
// schedules two events and cancels one of them before stepping.
func BenchmarkEngineCancelChurn(b *testing.B) {
	var e Engine
	var rng churnDelay = 1
	nop := func() {}
	const pop = 512
	for i := 0; i < pop; i++ {
		e.At(rng.next(), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep := e.After(rng.next(), nop)
		drop := e.After(rng.next(), nop)
		e.Cancel(drop)
		_ = keep
		e.Step()
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.At(float64(j%97), func() {})
		}
		e.Run()
	}
}
