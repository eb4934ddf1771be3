package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedice/internal/model"
)

// slowFirst declares a 40%-utilization partition with a 100 ms period above
// a 50%-utilization one with a 10 ms period: the fast partition misses under
// the declared order, and OPA swaps them.
const slowFirst = `{
  "name": "slow-first",
  "partitions": [
    {"name": "slow", "periodMillis": 100, "budgetMillis": 40,
     "tasks": [{"name": "s", "periodMillis": 100, "wcetMillis": 40}]},
    {"name": "fast", "periodMillis": 10, "budgetMillis": 5,
     "tasks": [{"name": "f", "periodMillis": 10, "wcetMillis": 5}]}
  ]
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "system.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRejectsBadInvocations(t *testing.T) {
	spec := writeSpec(t, slowFirst)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing config", nil, "-config is required"},
		{"unreadable path", []string{"-config", filepath.Join(t.TempDir(), "absent.json")}, "absent.json"},
		{"stray positional", []string{"-config", spec, "extra"}, `unexpected arguments ["extra"]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("run(%q) printed %q before failing", tc.args, out.String())
			}
		})
	}
}

// TestReordersUnschedulableDeclaration: the declared order fails, so the
// output names the schedulable order, carries the NOT-schedulable note, and
// -emit prints a spec that model.ReadSystem re-reads in that order.
func TestReordersUnschedulableDeclaration(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-config", writeSpec(t, slowFirst), "-emit"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`schedulable priority order for "slow-first" (highest first):`,
		"   1. fast ",
		"   2. slow ",
		"note: the declared order was NOT schedulable; use the order above.",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	emitted, err := model.ReadSystem(strings.NewReader(text[strings.Index(text, "{"):]))
	if err != nil {
		t.Fatalf("emitted spec does not re-read: %v\n%s", err, text)
	}
	if len(emitted.Partitions) != 2 || emitted.Partitions[0].Name != "fast" || emitted.Partitions[1].Name != "slow" {
		t.Errorf("emitted order = %+v, want fast, slow", emitted.Partitions)
	}
}
