package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs run() with a temp-file stdout and returns what it wrote.
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

func TestRunDefaultText(t *testing.T) {
	out, err := capture(t, []string{"-tmax", "200"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"throughput", "totcom", "lock requests"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out, err := capture(t, []string{"-tmax", "150", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"Throughput"`) {
		t.Fatalf("json output missing Throughput: %s", out)
	}
}

func TestRunReplications(t *testing.T) {
	out, err := capture(t, []string{"-tmax", "150", "-reps", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "±") {
		t.Fatalf("replicated output missing CI: %s", out)
	}
}

func TestRunAnalyticAndQuantiles(t *testing.T) {
	out, err := capture(t, []string{"-tmax", "200", "-analytic", "-quantiles"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "analytic thr.") || !strings.Contains(out, "response P99") {
		t.Fatalf("missing analytic/quantile lines:\n%s", out)
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := capture(t, []string{"-tmax", "100", "-tracefile", path})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "events written") {
		t.Fatalf("no trace confirmation: %s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("trace file empty: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-placement", "bogus"},
		{"-partitioning", "bogus"},
		{"-ltot", "0"},
	} {
		if _, err := capture(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunMixAndMPL(t *testing.T) {
	out, err := capture(t, []string{"-tmax", "200", "-mix", "-mpl", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "totcom") {
		t.Fatalf("output: %s", out)
	}
}
