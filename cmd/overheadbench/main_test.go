package main

import (
	"strings"
	"testing"
)

// TestNonPositiveSecsRejected: -secs must be positive. Zero and negative
// values fail before any configuration is simulated instead of silently
// running the default scale.
func TestNonPositiveSecsRejected(t *testing.T) {
	for _, v := range []string{"0", "-3"} {
		err := run([]string{"-secs", v})
		if err == nil || !strings.Contains(err.Error(), "-secs "+v) {
			t.Errorf("run(-secs %s) = %v, want a -secs error", v, err)
		}
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
// positional argument fails before any configuration is simulated.
func TestStrayArgumentsRejected(t *testing.T) {
	err := run([]string{"-secs", "0", "stray"})
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray"]`) {
		t.Fatalf("run(-secs 0 stray) = %v, want an unexpected-arguments error", err)
	}
}
