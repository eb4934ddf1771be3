package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsRejected: an unknown -scale, a negative -parallel and a stray
// positional word (which would drop every flag after it) fail before the
// report file is created or any section runs.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "bogus"}, `"bogus"`},
		{[]string{"-parallel", "-1"}, "-parallel -1"},
		{[]string{"-scale", "bogus", "stray"}, `unexpected arguments ["stray" "-out"`},
	} {
		out := filepath.Join(t.TempDir(), "report.md")
		err := run(append(tc.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error mentioning %s", tc.args, err, tc.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("run(%v) created %s", tc.args, out)
		}
	}
}
