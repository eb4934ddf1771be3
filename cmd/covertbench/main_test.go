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
