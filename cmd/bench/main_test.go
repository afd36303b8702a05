package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rep builds a report from comparisons, deriving each one's pass from
// its speedup and target the way report.compare does.
func rep(quick bool, cs ...comparison) *report {
	r := &report{Quick: quick}
	for _, c := range cs {
		c.Pass = c.Target > 0 && c.Speedup >= c.Target
		r.Comparisons = append(r.Comparisons, c)
	}
	return r
}

func TestCompareReports(t *testing.T) {
	full := rep(false,
		comparison{Name: "headline", Speedup: 4, Target: 2},
		comparison{Name: "ungated", Speedup: 10})
	full.Benchmarks = []entry{{Name: "a", OpsPerSec: 1000}, {Name: "b", OpsPerSec: 1000}}

	cases := []struct {
		name     string
		old, new *report
		want     string // substring of the error; "" = must pass
	}{
		{"quick vs full compares ratios and holds", full,
			rep(true, comparison{Name: "headline", Speedup: 3.1, Target: 2}, comparison{Name: "ungated", Speedup: 7.6}), ""},
		{"ratio drop over 25% fails", full,
			rep(true, comparison{Name: "headline", Speedup: 4, Target: 2}, comparison{Name: "ungated", Speedup: 7.4}),
			"speedup ratio(s) regressed"},
		{"missed target fails even when ratios hold",
			rep(false, comparison{Name: "headline", Speedup: 2.1, Target: 2}),
			rep(true, comparison{Name: "headline", Speedup: 1.9, Target: 2}),
			"below their acceptance target"},
		{"a name on one side only never fails", full,
			rep(true, comparison{Name: "headline", Speedup: 4, Target: 2}, comparison{Name: "new in this run", Speedup: 0.1}), ""},
		// Quick throughput against full throughput says nothing: the
		// entries below would fail the 10% throughput diff.
		{"quick vs full ignores absolute throughput", full,
			&report{Quick: true, Benchmarks: []entry{{Name: "a", OpsPerSec: 1}},
				Comparisons: rep(true, comparison{Name: "headline", Speedup: 4, Target: 2}).Comparisons}, ""},
		{"same fidelity compares throughput", full,
			&report{Benchmarks: []entry{{Name: "a", OpsPerSec: 950}, {Name: "b", OpsPerSec: 910}, {Name: "only here", OpsPerSec: 1}}}, ""},
		{"throughput drop over 10% fails", full,
			&report{Benchmarks: []entry{{Name: "a", OpsPerSec: 1000}, {Name: "b", OpsPerSec: 890}}},
			"[b]"},
		{"same fidelity still enforces targets", full,
			rep(false, comparison{Name: "headline", Speedup: 1.5, Target: 2}),
			"below their acceptance target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareReports(tc.old, tc.new, "OLD.json")
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("passed, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestReportCompare(t *testing.T) {
	r := &report{Benchmarks: []entry{{Name: "fast", OpsPerSec: 300}, {Name: "slow", OpsPerSec: 100}}}
	if err := r.compare("gated", "fast", "slow", 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.compare("missed", "slow", "fast", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.compare("ungated", "fast", "slow", 1, 0); err != nil {
		t.Fatal(err)
	}
	want := []comparison{
		{Name: "gated", Numerator: "fast", Denominator: "slow", Speedup: 3, Target: 3, Pass: true},
		{Name: "missed", Numerator: "slow", Denominator: "fast", Speedup: 1.0 / 3, Target: 1},
		{Name: "ungated", Numerator: "fast", Denominator: "slow", Speedup: 3},
	}
	for i, c := range r.Comparisons {
		if c != want[i] {
			t.Errorf("comparison %d = %+v, want %+v", i, c, want[i])
		}
	}
	if err := r.compare("typo", "fast", "sloww", 1, 0); err == nil {
		t.Error("a comparison naming a missing entry was accepted")
	}
	if err := checkTargets(r); err == nil || !strings.Contains(err.Error(), "missed") {
		t.Errorf("checkTargets = %v, want the missed comparison named", err)
	}
}

func TestSuiteRequired(t *testing.T) {
	for _, suite := range []string{"", "model"} {
		if err := run(suite, filepath.Join(t.TempDir(), "BENCH.json"), true, "", ""); err == nil {
			t.Errorf("-suite %q accepted", suite)
		}
	}
}

// Every kept suite writes the one report type: the file a -quick run of
// each leaves behind must decode as a report with no field left over.
// Floors are not asserted here — that is -compare's job in `make verify`,
// on a machine that is running nothing else.
func TestQuickSuitesShareOneSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite's quick workload")
	}
	for name := range suites {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH.json")
			if err := run(name, out, true, "", ""); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var got report
			dec := json.NewDecoder(f)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("quick %s report does not decode as a report: %v", name, err)
			}
			if !got.Quick || got.GOMAXPROCS == 0 || len(got.Benchmarks) == 0 {
				t.Fatalf("quick=%v gomaxprocs=%d with %d benchmarks", got.Quick, got.GOMAXPROCS, len(got.Benchmarks))
			}
			for _, e := range got.Benchmarks {
				if e.Name == "" || e.NsPerOp <= 0 || e.OpsPerSec <= 0 {
					t.Errorf("entry %+v lacks a name, a time or a throughput", e)
				}
			}
		})
	}
}
