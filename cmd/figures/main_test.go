package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunWritesSelectedFigure(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-only", "fig7,table1", "-tmax", "100", "-q"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.txt", "fig7.txt", "fig7.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(data) == 0 {
			t.Fatalf("%s missing or empty: %v", name, err)
		}
	}
	txt, _ := os.ReadFile(filepath.Join(dir, "fig7.txt"))
	if !strings.Contains(string(txt), "Figure 7") {
		t.Fatal("figure text content wrong")
	}
	// Every run ends with the report: one timing line per id, then the
	// simulated and analytic optimum.
	report, err := os.ReadFile(filepath.Join(dir, "REPORT.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "\nfig7 ") {
		t.Fatalf("report has no fig7 timing line:\n%s", report)
	}
	if !regexp.MustCompile(`\noptimal granularity: simulated \d+, analytic \d+\n$`).Match(report) {
		t.Fatalf("report does not end with the optimum line:\n%s", report)
	}
}

func TestRunExtensionSelection(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-only", "ext-requeue", "-tmax", "100", "-q"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ext-requeue.csv")); err != nil {
		t.Fatal(err)
	}
	// table1 is skipped when -only excludes it.
	if _, err := os.Stat(filepath.Join(dir, "table1.txt")); !os.IsNotExist(err) {
		t.Fatal("table1 written despite -only filter")
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-only", "fig99", "-tmax", "100", "-q"}); err == nil {
		t.Fatal("unknown figure id accepted")
	}
}
