// Package granulock_test holds the benchmark harness regenerating every
// table and figure of the paper's evaluation section, plus ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// Each figure benchmark runs the corresponding experiment sweep at a
// reduced horizon (the shapes are stable well before the paper's
// tmax=1000) and reports, as custom metrics, the quantities the paper's
// discussion hinges on — e.g. the throughput at the optimum versus at
// the extremes. Regenerate the full-resolution artifacts (every paper
// figure and extension, plus REPORT.txt) with:
//
//	go run ./cmd/figures -out results
package granulock_test

import (
	"context"
	"testing"

	"granulock"
	"granulock/internal/engine"
)

// benchOpts keeps figure benchmarks affordable while preserving shapes.
func benchOpts() granulock.Options {
	return granulock.Options{TMax: 250, Seed: 1, Replications: 1}
}

// figureBench runs one figure per iteration and reports headline
// metrics extracted by report.
func figureBench(b *testing.B, id string, report func(b *testing.B, f granulock.Figure)) {
	b.Helper()
	var last granulock.Figure
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		f, err := granulock.RunFigure(id, o)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	report(b, last)
}

// seriesPeak returns the maximum y and its x for one series of a panel.
func seriesPeak(f granulock.Figure, panel int, series string) (x, y float64) {
	p := f.Panels[panel]
	for _, s := range p.Series {
		if s.Label != series {
			continue
		}
		for _, pt := range s.Points {
			if v := p.Metric(pt.M); v > y {
				x, y = pt.X, v
			}
		}
	}
	return x, y
}

// seriesAt returns the y value of one series at x.
func seriesAt(f granulock.Figure, panel int, series string, x float64) float64 {
	p := f.Panels[panel]
	for _, s := range p.Series {
		if s.Label != series {
			continue
		}
		for _, pt := range s.Points {
			if pt.X == x {
				return p.Metric(pt.M)
			}
		}
	}
	return 0
}

func BenchmarkTable1Baseline(b *testing.B) {
	// Table 1 defines the base configuration; this bench runs it as-is.
	p := granulock.DefaultParams()
	p.TMax = 250
	var m granulock.Metrics
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		var err error
		if m, err = granulock.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Throughput, "throughput")
	b.ReportMetric(m.MeanResponse, "response")
}

func BenchmarkFigure2(b *testing.B) {
	figureBench(b, "fig2", func(b *testing.B, f granulock.Figure) {
		optX1, opt1 := seriesPeak(f, 0, "npros=1")
		optX30, opt30 := seriesPeak(f, 0, "npros=30")
		b.ReportMetric(opt1, "peak-thr-npros1")
		b.ReportMetric(opt30, "peak-thr-npros30")
		b.ReportMetric(optX1, "opt-ltot-npros1")
		b.ReportMetric(optX30, "opt-ltot-npros30")
	})
}

func BenchmarkFigure3(b *testing.B) {
	figureBench(b, "fig3", func(b *testing.B, f granulock.Figure) {
		_, io1 := seriesPeak(f, 0, "npros=1")
		_, io30 := seriesPeak(f, 0, "npros=30")
		b.ReportMetric(io1, "peak-usefulio-npros1")
		b.ReportMetric(io30, "peak-usefulio-npros30")
	})
}

func BenchmarkFigure4(b *testing.B) {
	figureBench(b, "fig4", func(b *testing.B, f granulock.Figure) {
		b.ReportMetric(seriesAt(f, 0, "npros=30", 1), "lockovh-ltot1")
		b.ReportMetric(seriesAt(f, 0, "npros=30", 5000), "lockovh-ltot5000")
	})
}

func BenchmarkFigure5(b *testing.B) {
	figureBench(b, "fig5", func(b *testing.B, f granulock.Figure) {
		b.ReportMetric(seriesAt(f, 0, "npros=30", 1), "lockovh-ltot1")
		b.ReportMetric(seriesAt(f, 0, "npros=30", 5000), "lockovh-ltot5000")
	})
}

func BenchmarkFigure6(b *testing.B) {
	figureBench(b, "fig6", func(b *testing.B, f granulock.Figure) {
		xSmall, peakSmall := seriesPeak(f, 0, "maxtransize=50")
		xLarge, peakLarge := seriesPeak(f, 0, "maxtransize=5000")
		b.ReportMetric(peakSmall, "peak-thr-small")
		b.ReportMetric(peakLarge, "peak-thr-large")
		b.ReportMetric(xSmall, "opt-ltot-small")
		b.ReportMetric(xLarge, "opt-ltot-large")
	})
}

func BenchmarkFigure7(b *testing.B) {
	figureBench(b, "fig7", func(b *testing.B, f granulock.Figure) {
		_, peakDisk := seriesPeak(f, 0, "lock I/O time = I/O time (0.2)")
		_, peakMem := seriesPeak(f, 0, "lock I/O time = 0 (in-memory)")
		b.ReportMetric(peakDisk, "peak-thr-disklocks")
		b.ReportMetric(peakMem, "peak-thr-memlocks")
		// The paper: in-memory locks let fine granularity stop hurting.
		b.ReportMetric(seriesAt(f, 0, "lock I/O time = 0 (in-memory)", 5000), "thr-mem-ltot5000")
	})
}

func BenchmarkFigure8(b *testing.B) {
	figureBench(b, "fig8", func(b *testing.B, f granulock.Figure) {
		_, peak := seriesPeak(f, 0, "npros=30")
		b.ReportMetric(peak, "peak-thr-npros30-random")
	})
}

func BenchmarkFigure9(b *testing.B) {
	figureBench(b, "fig9", func(b *testing.B, f granulock.Figure) {
		best := "best placement, npros=30"
		worst := "worst placement, npros=30"
		_, peakBest := seriesPeak(f, 0, best)
		b.ReportMetric(peakBest, "peak-thr-best")
		b.ReportMetric(seriesAt(f, 0, worst, 1), "thr-worst-ltot1")
		b.ReportMetric(seriesAt(f, 0, worst, 200), "thr-worst-ltot200")
	})
}

func BenchmarkFigure10(b *testing.B) {
	figureBench(b, "fig10", func(b *testing.B, f granulock.Figure) {
		worst := "worst placement, npros=30"
		b.ReportMetric(seriesAt(f, 0, worst, 20), "thr-worst-ltot20")
		b.ReportMetric(seriesAt(f, 0, worst, 5000), "thr-worst-ltot5000")
	})
}

func BenchmarkFigure11(b *testing.B) {
	figureBench(b, "fig11", func(b *testing.B, f granulock.Figure) {
		b.ReportMetric(seriesAt(f, 0, "best placement", 5000), "thr-mix-best-ltot5000")
		b.ReportMetric(seriesAt(f, 0, "worst placement", 5000), "thr-mix-worst-ltot5000")
	})
}

func BenchmarkFigure12(b *testing.B) {
	figureBench(b, "fig12", func(b *testing.B, f granulock.Figure) {
		best := "best placement"
		b.ReportMetric(seriesAt(f, 0, best, 10), "thr-heavy-ltot10")
		b.ReportMetric(seriesAt(f, 0, best, 5000), "thr-heavy-ltot5000")
	})
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationRequeue compares head vs tail re-queueing of released
// transactions, a detail the paper leaves unspecified.
func BenchmarkAblationRequeue(b *testing.B) {
	run := func(b *testing.B, tail bool) {
		p := granulock.DefaultParams()
		p.TMax = 250
		p.Ltot = 5 // plenty of blocking so the policy matters
		p.ReleasedToTail = tail
		var m granulock.Metrics
		for i := 0; i < b.N; i++ {
			p.Seed = uint64(i + 1)
			var err error
			if m, err = granulock.Run(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(m.Throughput, "throughput")
		b.ReportMetric(m.MeanResponse, "response")
	}
	b.Run("head", func(b *testing.B) { run(b, false) })
	b.Run("tail", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLockSharing compares the paper's shared lock work
// against funnelling all lock processing through one processor.
func BenchmarkAblationLockSharing(b *testing.B) {
	run := func(b *testing.B, dedicated bool) {
		p := granulock.DefaultParams()
		p.TMax = 250
		p.NPros = 30
		p.Ltot = 200
		p.DedicatedLockProcessor = dedicated
		var m granulock.Metrics
		for i := 0; i < b.N; i++ {
			p.Seed = uint64(i + 1)
			var err error
			if m, err = granulock.Run(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(m.Throughput, "throughput")
	}
	b.Run("shared", func(b *testing.B) { run(b, false) })
	b.Run("dedicated", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationScheduling shows transaction-level scheduling
// rescuing fine granularity under heavy load (§3.7).
func BenchmarkAblationScheduling(b *testing.B) {
	run := func(b *testing.B, mk func() granulock.Scheduler) {
		p := granulock.DefaultParams()
		p.TMax = 250
		p.NTrans = 200
		p.NPros = 20
		p.Ltot = 5000
		var m granulock.Metrics
		for i := 0; i < b.N; i++ {
			p.Seed = uint64(i + 1)
			if mk != nil {
				p.Scheduler = mk()
			}
			var err error
			if m, err = granulock.Run(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(m.Throughput, "throughput")
		b.ReportMetric(m.DenialRate, "denialrate")
	}
	b.Run("unlimited", func(b *testing.B) { run(b, nil) })
	b.Run("mpl2", func(b *testing.B) {
		run(b, func() granulock.Scheduler { return granulock.FixedMPL(2) })
	})
	b.Run("mpl8", func(b *testing.B) {
		run(b, func() granulock.Scheduler { return granulock.FixedMPL(8) })
	})
	b.Run("adaptive", func(b *testing.B) {
		run(b, func() granulock.Scheduler {
			s, err := granulock.AdaptiveMPL(1, 200, 20, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			return s
		})
	})
}

// BenchmarkAblationClaimAsNeeded compares the two real locking protocols
// on the executable engine (footnote 1 of the paper).
func BenchmarkAblationClaimAsNeeded(b *testing.B) {
	run := func(b *testing.B, protocol engine.Protocol) {
		db, err := engine.Open(1000,
			engine.WithNodes(4),
			engine.WithGranules(100),
			engine.WithProtocol(protocol),
			engine.WithInitialValue(100))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Execute(ctx, engine.Transfer(i%1000, (i*7+1)%1000, 1)); err != nil {
				b.Fatal(err)
			}
		}
		s := db.Stats()
		b.ReportMetric(float64(s.Restarts), "restarts")
	}
	b.Run("conservative", func(b *testing.B) { run(b, engine.Conservative) })
	b.Run("claim-as-needed", func(b *testing.B) { run(b, engine.ClaimAsNeeded) })
}

// BenchmarkGranularityCurve prices one full tuning sweep through the
// public API.
func BenchmarkGranularityCurve(b *testing.B) {
	p := granulock.DefaultParams()
	p.TMax = 200
	var best int
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		var err error
		if best, _, err = granulock.OptimalGranularity(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(best), "optimal-ltot")
}
