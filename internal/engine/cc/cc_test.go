package cc

import (
	"errors"
	"sort"
	"testing"

	"granulock/internal/lockmgr"
)

// TestRegistrySelfCheck is the registry's structural contract: every
// registered protocol has a unique, non-empty, all-lowercase name that
// matches its registry key, Names is sorted, and Lookup round-trips.
// CI runs this as the protocol-registry gate.
func TestRegistrySelfCheck(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry has %d protocols, want >= 6 built-ins: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	seen := make(map[string]bool)
	for _, name := range names {
		if name == "" {
			t.Fatal("empty protocol name registered")
		}
		if seen[name] {
			t.Fatalf("duplicate protocol name %q", name)
		}
		seen[name] = true
		for _, r := range name {
			if r >= 'A' && r <= 'Z' {
				t.Fatalf("protocol name %q not lowercase", name)
			}
		}
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed a listed protocol", name)
		}
		if p.Name() != name {
			t.Fatalf("protocol registered as %q names itself %q", name, p.Name())
		}
	}
	for _, want := range []string{
		"conservative", "claim-as-needed", "hierarchical",
		"wound-wait", "wait-die", "optimistic",
	} {
		if !seen[want] {
			t.Fatalf("built-in protocol %q missing from registry: %v", want, names)
		}
	}
	if _, ok := Lookup("no-such-protocol"); ok {
		t.Fatal("Lookup invented a protocol")
	}
}

type fakeProtocol struct{ name string }

func (f fakeProtocol) Name() string                 { return f.name }
func (f fakeProtocol) New(Config) (Instance, error) { return nil, nil }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegisterRejectsBadNames(t *testing.T) {
	mustPanic(t, "duplicate name", func() { Register(fakeProtocol{name: "conservative"}) })
	mustPanic(t, "empty name", func() { Register(fakeProtocol{name: ""}) })
	mustPanic(t, "uppercase name", func() { Register(fakeProtocol{name: "Shiny"}) })
}

// TestRestartTaxonomy pins the typed error taxonomy: every protocol-
// initiated abort is an ErrRestart (so the engine retries it), carries
// a stable kind string (so metrics can break restarts down by cause),
// and ordinary errors are not restartable. The detector's deadlock
// verdict is restartable but carries no RestartError (kind "").
func TestRestartTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		kind string
	}{
		{ErrWounded, "wounded"},
		{ErrDie, "die"},
		{ErrValidation, "validation"},
		{lockmgr.ErrDeadlock, ""},
	}
	for _, c := range cases {
		if !Restartable(c.err) {
			t.Errorf("%v not restartable", c.err)
		}
		var re *RestartError
		if isRE := errors.As(c.err, &re); isRE != (c.kind != "") || isRE && re.Kind != c.kind {
			t.Errorf("%v: RestartError %v, want kind %q", c.err, re, c.kind)
		}
	}
	if !errors.Is(ErrWounded, ErrRestart) {
		t.Fatal("ErrWounded does not match ErrRestart")
	}
	plain := errors.New("disk on fire")
	var re *RestartError
	if Restartable(plain) || errors.As(plain, &re) {
		t.Fatal("ordinary error classified as restartable")
	}
	if Restartable(nil) {
		t.Fatal("nil restartable")
	}
}
