package main

import (
	"strings"
	"testing"
)

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
// positional argument fails before any trial runs.
func TestStrayArgumentsRejected(t *testing.T) {
	err := run([]string{"-parallel", "-1", "stray"})
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray"]`) {
		t.Fatalf("run(-parallel -1 stray) = %v, want an unexpected-arguments error", err)
	}
}
