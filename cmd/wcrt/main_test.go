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
