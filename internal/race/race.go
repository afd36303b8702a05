//go:build !race

// Package race reports whether the race detector is compiled in. Tests
// that pin allocation counts on pooled paths skip under it: a race build
// of sync.Pool drops a quarter of its Puts on purpose, so a pooled
// record comes back as an allocation at random.
package race

// Enabled is true in a -race build.
const Enabled = false
