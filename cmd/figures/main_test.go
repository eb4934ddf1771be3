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
