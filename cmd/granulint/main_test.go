package main_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildGranulint compiles the multichecker once into the test's temp
// dir and returns the binary path.
func buildGranulint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "granulint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building granulint: %v\n%s", err, out)
	}
	return bin
}

// runGranulint executes the binary and returns its combined output and
// exit code.
func runGranulint(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running granulint %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestFixtureModule is the end-to-end check the suite hangs off: the
// fixture module under testdata/ seeds one violation per analyzer, and
// the built binary must catch every one of them and exit 1.
func TestFixtureModule(t *testing.T) {
	bin := buildGranulint(t)
	out, code := runGranulint(t, bin, "-C", "testdata/fixture", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\n%s", code, out)
	}
	for _, analyzer := range []string{"hotpath", "errtaxonomy", "metricname", "directive"} {
		if !strings.Contains(out, " "+analyzer+": ") {
			t.Errorf("no %s finding in output:\n%s", analyzer, out)
		}
	}
}

// TestRunFilter: -run restricts the suite to the named analyzers.
func TestRunFilter(t *testing.T) {
	bin := buildGranulint(t)
	out, code := runGranulint(t, bin, "-run", "hotpath", "-C", "testdata/fixture", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\n%s", code, out)
	}
	if !strings.Contains(out, " hotpath: ") {
		t.Errorf("no hotpath finding in filtered output:\n%s", out)
	}
	for _, analyzer := range []string{"errtaxonomy", "metricname"} {
		if strings.Contains(out, " "+analyzer+": ") {
			t.Errorf("-run hotpath leaked a %s finding:\n%s", analyzer, out)
		}
	}
}

// TestUnknownAnalyzer: a bad -run name is a usage error, not findings.
func TestUnknownAnalyzer(t *testing.T) {
	bin := buildGranulint(t)
	out, code := runGranulint(t, bin, "-run", "nosuch", "./...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage)\n%s", code, out)
	}
	if !strings.Contains(out, "unknown analyzer") {
		t.Errorf("missing unknown-analyzer message:\n%s", out)
	}
}

// TestList: -list prints the registry and exits 0.
func TestList(t *testing.T) {
	bin := buildGranulint(t)
	out, code := runGranulint(t, bin, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	for _, analyzer := range []string{"hotpath", "errtaxonomy", "metricname", "directive"} {
		if !strings.Contains(out, analyzer) {
			t.Errorf("-list omits %s:\n%s", analyzer, out)
		}
	}
}
