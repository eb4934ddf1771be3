package main

import (
	"strings"
	"testing"
)

// TestUnknownScaleRejected: -scale accepts only quick or full, in any case;
// anything else fails before an experiment runs.
func TestUnknownScaleRejected(t *testing.T) {
	err := run([]string{"-scale", "bogus", "-fig", "4"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("run(-scale bogus) = %v, want an unknown-scale error", err)
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
