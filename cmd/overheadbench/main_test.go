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
