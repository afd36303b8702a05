package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestSweepLtot(t *testing.T) {
	out, err := capture(t, []string{"-param", "ltot", "-values", "1,100", "-tmax", "150"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("output rows: %q", out)
	}
	if !strings.Contains(lines[0], "throughput") {
		t.Fatalf("header: %q", lines[0])
	}
}

func TestSweepMetrics(t *testing.T) {
	for _, metric := range []string{"throughput", "response", "usefulio", "usefulcpu", "lockoverhead", "denialrate"} {
		if _, err := capture(t, []string{"-param", "npros", "-values", "2", "-metric", metric, "-tmax", "100"}); err != nil {
			t.Errorf("metric %s: %v", metric, err)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	bad := [][]string{
		{"-param", "bogus"},
		{"-metric", "bogus"},
		{"-values", "not-a-number"},
		{"-param", "ltot", "-values", "0", "-tmax", "100"}, // invalid model params
		{"-protocol", "bogus"},
		{"-engine", "-metrics", "-values", "1"}, // the engine fills no registry
		{"-engine", "-param", "ltot", "-values", "10,2000", "-dbsize", "1000"}, // more granules than entities
	}
	for _, args := range bad {
		if _, err := capture(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSweepProtocolList checks that -protocol list prints every
// registered protocol and returns instead of sweeping.
func TestSweepProtocolList(t *testing.T) {
	out, err := capture(t, []string{"-protocol", "list"})
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(out)
	for _, want := range []string{"claim-as-needed", "conservative", "hierarchical", "optimistic", "wait-die", "wound-wait"} {
		if !slices.Contains(names, want) {
			t.Errorf("protocol %q not listed in %q", want, out)
		}
	}
}
