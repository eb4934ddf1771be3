package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNonPositiveWindowsRejected: -windows must be positive. Zero and
// negative values fail before the output directory is created or any figure
// is rendered.
func TestNonPositiveWindowsRejected(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		out := filepath.Join(t.TempDir(), "figures")
		err := run([]string{"-windows", v, "-out", out})
		if err == nil || !strings.Contains(err.Error(), "-windows "+v) {
			t.Errorf("run(-windows %s) = %v, want a -windows error", v, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("run(-windows %s) created %s", v, out)
		}
	}
}

// TestNegativeParallelRejected: -parallel takes a worker count, with 0
// meaning one per CPU. A negative value fails before the output directory is
// created instead of silently meaning one worker per CPU.
func TestNegativeParallelRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "figures")
	err := run([]string{"-parallel", "-1", "-out", out})
	if err == nil || !strings.Contains(err.Error(), "-parallel -1") {
		t.Fatalf("run(-parallel -1) = %v, want a -parallel error", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("run(-parallel -1) created %s", out)
	}
}

// TestStrayArgumentsRejected: flag parsing stops at the first non-flag
// word, so a stray word would silently drop every flag after it. Any
// positional argument fails before the output directory is created.
func TestStrayArgumentsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "figures")
	err := run([]string{"-windows", "0", "stray", "-out", out})
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray" "-out"`) {
		t.Fatalf("run(-windows 0 stray -out ...) = %v, want an unexpected-arguments error", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("run(... stray ...) created %s", out)
	}
}
