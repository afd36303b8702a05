package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, with its checks,
// on 200 ms windows, so that the repository's tests catch a change to a
// layer's API or behaviour that the benchmark depends on. The numbers
// mean nothing at this length; only their presence is checked.
func TestSmoke(t *testing.T) {
	cfg := runCfg{
		seed:     1,
		dur:      200 * time.Millisecond,
		dir:      t.TempDir(),
		traceDir: t.TempDir(),
		probes:   !testing.Short(),
		simTMax:  100,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				r, err := runOne(w, cfg, trace)
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if !r.Correct {
					t.Errorf("trace %v: output checks failed", trace)
				}
				if r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("trace %v: attempted %d, failed %d", trace, r.Attempted, r.Failed)
				}
				if trace {
					if r.Metrics["trace.overhead_ratio"].Value <= 0 {
						t.Errorf("traced run reports no overhead ratio: %v", r.Metrics)
					}
					if _, err := os.Stat(filepath.Join(cfg.traceDir, w.name+".jsonl")); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
			}
		})
	}
}
