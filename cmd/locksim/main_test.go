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

// TestRunNetFaulty drives the network lock-service harness through the
// fault-injecting transport and requires the drain invariant: zero
// stranded granules. This is the ISSUE 3 acceptance scenario at test
// scale (the full 1000-txn run is exercised by `make verify`).
func TestRunNetFaulty(t *testing.T) {
	out, err := capture(t, []string{"-net", "4", "-nettxns", "200", "-netfaults", "-ltot", "50"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "residual holders 0 (granules 0, waiters 0)") {
		t.Fatalf("missing clean-drain line:\n%s", out)
	}
}

// TestRunNetJSON checks the machine-readable summary.
func TestRunNetJSON(t *testing.T) {
	out, err := capture(t, []string{"-net", "2", "-nettxns", "50", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"residual_holders":0`) {
		t.Fatalf("json output missing residual_holders: %s", out)
	}
}

// TestRunNetValidation rejects nonsense harness parameters.
func TestRunNetValidation(t *testing.T) {
	if _, err := capture(t, []string{"-net", "2", "-netlocksper", "0"}); err == nil {
		t.Error("locksper 0 accepted")
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

// TestRunCrash runs the durable-engine kill-and-recover harness: every
// cycle must reopen to a balance-conserving state whatever the injected
// power cut tore (this is the ISSUE crash-recovery acceptance scenario
// at test scale; `make verify` runs it bigger and under -race).
func TestRunCrash(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, []string{
		"-crash", "5", "-dbsize", "200", "-ltot", "20", "-npros", "2",
		"-crashtxns", "20", "-crashdir", dir, "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "consistent       true") {
		t.Fatalf("missing consistency line:\n%s", out)
	}
	// The same directory reopens across cycles, so the log files must
	// exist afterwards.
	if _, err := os.Stat(filepath.Join(dir, "wal-0.log")); err != nil {
		t.Fatalf("wal-0.log missing after crash run: %v", err)
	}
}

// TestRunCrashJSON checks the machine-readable crash summary and that
// mid-snapshot kills actually occur over enough seeds.
func TestRunCrashJSON(t *testing.T) {
	out, err := capture(t, []string{
		"-crash", "4", "-dbsize", "120", "-ltot", "12", "-npros", "3",
		"-crashtxns", "12", "-seed", "7", "-json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"consistent":true`) {
		t.Fatalf("json output missing consistent: %s", out)
	}
}

// TestRunCrashValidation rejects a partition count beyond the WAL's
// 64-partition commit-mask limit.
func TestRunCrashValidation(t *testing.T) {
	if _, err := capture(t, []string{"-crash", "1", "-npros", "65"}); err == nil {
		t.Error("65 partitions accepted")
	}
}
