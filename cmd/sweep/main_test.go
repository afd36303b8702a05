package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	tracepkg "granulock/internal/trace"
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

// TestRunJSONIsOneObject checks that -json prints one JSON value and
// nothing else: the flags that would print text beside it are refused,
// naming both flags, before the trace file is created, and -tracefile's
// note goes to stderr.
func TestRunJSONIsOneObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, args := range [][]string{{"-json"}, {"-json", "-tracefile", path}} {
		out, err := capture(t, append([]string{"-tmax", "150"}, args...))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(out))
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("args %v: output is not a JSON object: %v\n%s", args, err, out)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("args %v: more than one JSON value (%v):\n%s", args, err, out)
		}
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("-json -tracefile wrote no trace: %v", err)
	}
	for _, extra := range [][]string{{"-quantiles"}, {"-trace", "5"}} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		for _, args := range [][]string{extra, append([]string{"-tracefile", path}, extra...)} {
			_, err := capture(t, append([]string{"-tmax", "50", "-json"}, args...))
			if err == nil {
				t.Fatalf("-json %v accepted", args)
			}
			for _, f := range []string{"-json", extra[0]} {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not name %s", err, f)
				}
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Errorf("refused run created %s: %v", path, serr)
			}
		}
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

// TestRunObserverFlagsCombine checks that every observer flag watches
// the one run: with -quantiles, -tracefile and -trace together, the
// quantiles and the first events print and the file holds the whole
// trace.
func TestRunObserverFlagsCombine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := capture(t, []string{"-tmax", "100", "-quantiles", "-tracefile", path, "-trace", "5"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("-tracefile wrote no file beside -quantiles: %v", err)
	}
	defer f.Close()
	events, err := tracepkg.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace file holds no events")
	}
	for _, want := range []string{
		"response P99",
		fmt.Sprintf("trace: %d events written", len(events)),
		"txn 1     arrived",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "  txn "); n != 5 {
		t.Errorf("-trace 5 printed %d event lines:\n%s", n, out)
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

// TestRunRefusesDroppedFlags checks that a flag the chosen output would
// drop, or that does not apply in the chosen mode, is refused, with an
// error that names both flags, before any file is created.
func TestRunRefusesDroppedFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		flags [2]string
	}{
		{"reps-quantiles", []string{"-reps", "3", "-quantiles"}, [2]string{"-reps", "-quantiles"}},
		{"reps-trace", []string{"-reps", "3", "-trace", "5"}, [2]string{"-reps", "-trace"}},
		{"reps-tracefile", []string{"-reps", "3"}, [2]string{"-reps", "-tracefile"}},
		{"reps-analytic", []string{"-reps", "2", "-analytic"}, [2]string{"-reps", "-analytic"}},
		{"json-analytic", []string{"-json", "-analytic"}, [2]string{"-json", "-analytic"}},
		{"values-reps", []string{"-values", "1", "-reps", "2"}, [2]string{"-values", "-reps"}},
		{"values-tracefile", []string{"-values", "1"}, [2]string{"-values", "-tracefile"}},
		{"values-swept-flag", []string{"-param", "ltot", "-values", "1", "-ltot", "5"}, [2]string{"-param ltot", "-ltot"}},
		{"metric-no-values", []string{"-metric", "response"}, [2]string{"-values", "-metric"}},
		{"engine-no-values", []string{"-engine"}, [2]string{"-values", "-engine"}},
		{"engine-tmax", []string{"-engine", "-values", "1"}, [2]string{"-engine", "-tmax"}},
		{"protocol-no-engine", []string{"-protocol", "wait-die"}, [2]string{"-engine", "-protocol"}},
		{"mix-maxtransize", []string{"-mix", "-maxtransize", "5"}, [2]string{"-mix", "-maxtransize"}},
		{"mix-swept-maxtransize", []string{"-mix", "-param", "maxtransize", "-values", "5"}, [2]string{"-param maxtransize", "-mix"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-tmax", "50"}, tc.args...)
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if tc.flags[1] == "-tracefile" {
				args = append(args, "-tracefile", path)
			}
			_, err := capture(t, args)
			if err == nil {
				t.Fatalf("args %v accepted", args)
			}
			for _, f := range tc.flags {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not name %s", err, f)
				}
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Errorf("refused run created %s: %v", path, serr)
			}
		})
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

// TestTraceOutputPinned pins the text of the first lifecycle events
// that -trace prints for a seeded run, byte for byte. Sixty events
// reach past the first denial and completion, so every line format is
// covered.
func TestTraceOutputPinned(t *testing.T) {
	out, err := capture(t, []string{"-tmax", "200", "-seed", "3", "-trace", "60"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"arrived", "lock request", "granted", "denied", "completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output has no %q line:\n%s", want, out)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(out))
	const want = uint64(0x17f76c1025ce59b2)
	if got := h.Sum64(); got != want {
		t.Fatalf("output hash %#x, want %#x:\n%s", got, want, out)
	}
}
