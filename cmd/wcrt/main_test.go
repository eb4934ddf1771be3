package main

import (
	"strings"
	"testing"
)

// TestNegativeEmpiricalRejected: -empirical takes simulated seconds, with 0
// meaning the analytic table only. A negative value fails before anything is
// printed instead of silently falling back to the analytic table.
func TestNegativeEmpiricalRejected(t *testing.T) {
	err := run([]string{"-empirical", "-5"})
	if err == nil || !strings.Contains(err.Error(), "-empirical -5") {
		t.Fatalf("run(-empirical -5) = %v, want an -empirical error", err)
	}
}

// TestNegativeParallelRejected: -parallel takes a worker count, with 0
// meaning one per CPU. A negative value fails before any trial runs instead
// of silently meaning one worker per CPU.
func TestNegativeParallelRejected(t *testing.T) {
	err := run([]string{"-parallel", "-1"})
	if err == nil || !strings.Contains(err.Error(), "-parallel -1") {
		t.Fatalf("run(-parallel -1) = %v, want a -parallel error", err)
	}
}

// TestStrayArgumentsRejected: flag parsing stops at the first non-flag
// word, so a stray word would silently drop every flag after it. Any
// positional argument fails before anything is printed.
func TestStrayArgumentsRejected(t *testing.T) {
	err := run([]string{"-empirical", "-5", "stray"})
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray"]`) {
		t.Fatalf("run(-empirical -5 stray) = %v, want an unexpected-arguments error", err)
	}
}
