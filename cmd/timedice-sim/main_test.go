package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSystemByName(t *testing.T) {
	cases := map[string]int{
		"three":        3,
		"tableI":       5,
		"tablei-light": 5,
		"car":          4,
		"tableI-x2":    10,
		"tableI-x4":    20,
	}
	for name, wantParts := range cases {
		spec, err := systemByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(spec.Partitions) != wantParts {
			t.Errorf("%s: %d partitions, want %d", name, len(spec.Partitions), wantParts)
		}
	}
	if _, err := systemByName("nope"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"NoRandom", "nr", "TimeDiceU", "tdu", "TimeDiceW", "td", "timedice", "TDMA"} {
		if _, err := policyByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := policyByName("rr"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Smoke the whole CLI path including PNG and config loading.
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "sys.json")
	png := filepath.Join(dir, "out.png")
	const doc = `{"name":"t","partitions":[
	  {"name":"A","periodMillis":10,"budgetMillis":2,
	   "tasks":[{"name":"a","periodMillis":20,"wcetMillis":2}]}]}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-config", cfgPath, "-policy", "TimeDiceW", "-dur", "50ms", "-trace", "none", "-png", png})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(png); err != nil || st.Size() == 0 {
		t.Errorf("png not written: %v", err)
	}
	if err := run([]string{"-system", "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown system") {
		t.Errorf("bogus system: %v", err)
	}
	if err := run([]string{"-trace", "wat"}); err == nil {
		t.Error("bad trace mode accepted")
	}
}

// TestBadFlagsRejected pins that malformed flags fail before any simulation:
// an empty horizon or Gantt cell, an unknown trace mode and a stray
// positional word (which would drop every flag after it) are errors, and
// the rejected run leaves no PNG behind.
func TestBadFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	png := filepath.Join(dir, "x.png")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero cell", []string{"-cell", "0"}, "-cell"},
		{"sub-microsecond cell", []string{"-cell", "1ns"}, "-cell"},
		{"zero dur", []string{"-dur", "0"}, "-dur"},
		{"negative dur", []string{"-dur", "-5ms"}, "-dur"},
		{"unknown trace with png", []string{"-trace", "bogus", "-png", png}, "unknown trace mode"},
		{"stray word", []string{"-dur", "0", "stray", "-png", png}, `unexpected arguments ["stray" "-png"`},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := os.Stat(png); !os.IsNotExist(err) {
		t.Errorf("rejected run wrote %s (stat: %v)", png, err)
	}
}
