package main

import (
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load is a closed loop, like the paper's model (a closed population
// with replacement arrivals): each client issues its next operation
// when the previous one returns. Clients record every operation; the
// window and its slices are cut afterwards by completion time, so
// nothing in the measured path knows about window boundaries.

// warmupFor returns the warm-up that precedes a measured window of
// length dur: two seconds, less before a window shorter than two and a
// half. The shorter windows of a traced run get the two seconds
// too: engine-durable's first two seconds run inside its log files'
// preallocated megabyte and are faster than all that follows.
func warmupFor(dur time.Duration) time.Duration { return min(2*time.Second, dur*4/5) }

// A measured window is cut into equal slices of about sliceLen, at
// least minSlices of them. Each end-to-end metric is computed per slice
// and reported as the median over slices, so a burst of interference
// from the host (this runs on small shared boxes) moves the slices it
// falls into, not the result.
const (
	sliceLen  = time.Second
	minSlices = 10
)

func slicesIn(dur time.Duration) int { return max(minSlices, int(dur/sliceLen)) }

// sample is one completed operation.
type sample struct {
	end    int64 // completion, ns since the window's base
	lat    int32 // wall latency in ns, clamped
	failed bool
}

// recorder is one client's log of completed operations, preallocated so
// that recording allocates nothing in a window of the expected length.
type recorder struct {
	base    time.Time
	samples []sample
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// done records an operation that started at start (from now) and has
// just returned err.
func (r *recorder) done(start int64, err error) {
	end := r.now()
	lat := end - start
	if lat > 1<<31-1 {
		lat = 1<<31 - 1
	}
	r.samples = append(r.samples, sample{end: end, lat: int32(lat), failed: err != nil})
}

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	at         int64 // ns since base
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
}

func readUsage(base time.Time) usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	samples := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(samples[:])
	return usage{
		at:         int64(time.Since(base)),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: samples[0].Value.Uint64(),
		allocObjs:  samples[1].Value.Uint64(),
	}
}

// sliceStat is one slice of a measured window.
type sliceStat struct {
	dur        time.Duration
	ops        int
	failed     int
	lats       []int64 // sorted, ns
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
}

// window is a measured window: its slices and, pooled over all of them,
// the counts the result line carries.
type window struct {
	from, to int64 // ns since the recorders' base
	// recorded counts every operation the clients ran, the warm-up and
	// the ones still running at the window's close included: the
	// denominator for counters read before the warm-up and after the
	// clients stopped.
	recorded  int
	slices    []sliceStat
	attempted int
	failed    int
}

// tput returns the window's completed operations per second: the median
// over its slices.
func (w window) tput() float64 {
	per := make([]float64, len(w.slices))
	for i, s := range w.slices {
		per[i] = float64(s.ops) / s.dur.Seconds()
	}
	return median(per)
}

// clientLoop runs one client's closed loop until stop is set, recording
// each operation on rec.
type clientLoop func(client int, stop *atomic.Bool, rec *recorder)

// expectOps sizes a client's recorder for a window of length dur at a
// total rate the workload is not expected to exceed.
func expectOps(rate float64, dur time.Duration, clients int) int {
	return int(rate*(warmupFor(dur)+dur).Seconds()/float64(clients)*1.5) + 1024
}

// runWindow drives clients closed loops through a warm-up and a measured
// window of length dur, and returns the window cut into slices. expect
// is the expected number of operations per client over the whole run,
// used only to size the recorders.
func runWindow(clients int, dur time.Duration, expect int, loop clientLoop) window {
	base := time.Now()
	recs := make([]*recorder, clients)
	for i := range recs {
		recs[i] = &recorder{base: base, samples: make([]sample, 0, expect)}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c, &stop, recs[c])
		}(c)
	}
	n := slicesIn(dur)
	bounds := make([]usage, 0, n+1)
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(base.Add(warmupFor(dur) + dur*time.Duration(i)/time.Duration(n))))
		bounds = append(bounds, readUsage(base))
	}
	stop.Store(true)
	wg.Wait()
	var all []sample
	for _, r := range recs {
		all = append(all, r.samples...)
	}
	return cut(all, bounds)
}

// cut assigns samples to the slices delimited by bounds by completion
// time; samples outside the window (the warm-up, and operations still
// running when it closed) are dropped.
func cut(all []sample, bounds []usage) window {
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	w := window{from: bounds[0].at, to: bounds[len(bounds)-1].at, recorded: len(all)}
	i := sort.Search(len(all), func(i int) bool { return all[i].end >= bounds[0].at })
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		s := sliceStat{
			dur:        time.Duration(hi.at - lo.at),
			cpu:        hi.cpu - lo.cpu,
			allocBytes: hi.allocBytes - lo.allocBytes,
			allocObjs:  hi.allocObjs - lo.allocObjs,
		}
		for ; i < len(all) && all[i].end < hi.at; i++ {
			s.ops++
			if all[i].failed {
				s.failed++
			}
			s.lats = append(s.lats, int64(all[i].lat))
		}
		slices.Sort(s.lats)
		w.attempted += s.ops
		w.failed += s.failed
		w.slices = append(w.slices, s)
	}
	return w
}

// pooledLats returns the latencies of all of w's slices, sorted.
func pooledLats(w window) []int64 {
	var all []int64
	for _, s := range w.slices {
		all = append(all, s.lats...)
	}
	slices.Sort(all)
	return all
}

// quantile returns the q-quantile of sorted by nearest rank, 0 if empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// median returns the median of vs (the mean of the middle two for an
// even count), 0 if empty. It reorders vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// usPerNs converts nanoseconds to microseconds.
const usPerNs = 1e-3

// endToEndOf computes the end-to-end metrics of a window, each as the
// median over the window's slices (setup_s is added by the caller).
// Slices in which nothing completed carry no information about
// per-operation cost and are skipped for those metrics.
func endToEndOf(w window) values {
	var p50, p99, alloc []float64
	for _, s := range w.slices {
		if s.ops == 0 {
			continue
		}
		p50 = append(p50, float64(quantile(s.lats, 0.50))*usPerNs)
		p99 = append(p99, float64(quantile(s.lats, 0.99))*usPerNs)
		alloc = append(alloc, float64(s.allocBytes)/float64(s.ops))
	}
	return values{
		"tput_ops_s":     w.tput(),
		"lat_p50_us":     median(p50),
		"lat_p99_us":     median(p99),
		"alloc_b_per_op": median(alloc),
	}
}

// cpuPerOp returns the process's user and system CPU time per completed
// operation in microseconds, the median over the window's slices.
func cpuPerOp(w window) float64 {
	var cpu []float64
	for _, s := range w.slices {
		if s.ops > 0 {
			cpu = append(cpu, float64(s.cpu.Nanoseconds())*usPerNs/float64(s.ops))
		}
	}
	return median(cpu)
}

// timeSetup runs setup (and the teardown of what it built) repeatedly
// for about budget, at least minSetups times, and returns the median
// duration of setup alone in seconds. The last instance is kept for the
// run and returned.
func timeSetup[T any](budget time.Duration, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	const minSetups = 5
	var durs []float64
	deadline := time.Now().Add(budget)
	for {
		start := time.Now()
		inst, err := setup()
		durs = append(durs, time.Since(start).Seconds())
		if err != nil {
			return inst, 0, err
		}
		if len(durs) >= minSetups && !time.Now().Before(deadline) {
			return inst, median(durs), nil
		}
		if err := teardown(inst); err != nil {
			return inst, 0, err
		}
	}
}
