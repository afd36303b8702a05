package main

import (
	"testing"
)

// BENCHMARK.json at the repository's root is what the driver reads; the
// lists in metrics.go are what the program prints. They must agree.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the program %d", len(sp.EndToEnd), len(endToEnd))
	}
	for i, m := range sp.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s in %s, the program %s in %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the program %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %s in %s, the program %s in %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	// The driver runs a subset of the program's workloads.
	for _, w := range sp.Workloads {
		if pw, ok := findWorkload(w.Name); !ok || w.Why != pw.why {
			t.Errorf("workload %s: BENCHMARK.json has %q, the program %q (known: %v)", w.Name, w.Why, pw.why, ok)
		}
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json has run_seconds %d, the program's default is %d", sp.RunSeconds, runSeconds)
	}
}

func TestWorseBy(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 90, "higher", 0.1},
		{100, 110, "higher", -0.1},
		{100, 110, "lower", 0.1},
		{100, 90, "lower", -0.1},
		{0, 5, "lower", 0},
	} {
		if got := worseBy(tc.a, tc.b, tc.better); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		metric      string
		a, b, bound float64
		better      string
		want        string
	}{
		{"tput_ops_s", 100, 90, 0.15, "higher", ""},
		{"tput_ops_s", 100, 80, 0.15, "higher", markOutside},
		{"lat_p50_us", 100, 120, 0.15, "lower", markOutside},
		// Set-up that doubles but stays under the floor is noted, not held
		// to the bound; above the floor it is.
		{"setup_s", 0.002, 0.004, 0.25, "lower", "under 0.2 s"},
		{"setup_s", 0.5, 0.8, 0.25, "lower", markOutside},
		{"setup_s", 0.5, 0.55, 0.25, "lower", ""},
	} {
		if got := verdict(tc.metric, tc.a, tc.b, worseBy(tc.a, tc.b, tc.better), tc.bound); got != tc.want {
			t.Errorf("verdict(%s, %v, %v, bound %v) = %q, want %q", tc.metric, tc.a, tc.b, tc.bound, got, tc.want)
		}
	}
}
