//go:build timedice_mutation

package core

import (
	"testing"

	"timedice/internal/vtime"
)

// TestFastPathMutationCaught proves TestFixpointFastPath's fixtures have
// teeth against the fast-path mutant: under -tags timedice_mutation the
// kernel's O(1) fast path reads the prefix minimum of the stream anchors one
// index short for an inactive partition (see mutation_on.go), so a run whose
// own replenishment arrives inside the opening busy interval is settled with
// a zero interference sum. With every other mutant off, the fixtures must
// all hold with the fast-path mutant off and at least one must fail with it
// on.
func TestFastPathMutationCaught(t *testing.T) {
	defer vtime.SetRecipMutant(vtime.SetRecipMutant(false))
	defer SetCacheMutant(SetCacheMutant(false))
	defer SetFastPathMutant(SetFastPathMutant(false))
	cases := fastPathCases()
	for _, tc := range cases {
		for _, msg := range fastPathMismatches(tc) {
			t.Errorf("mutants off: %s: %s", tc.name, msg)
		}
	}
	SetFastPathMutant(true)
	caught := 0
	for _, tc := range cases {
		if msgs := fastPathMismatches(tc); len(msgs) > 0 {
			caught++
			t.Logf("%s: %v", tc.name, msgs)
		}
	}
	if caught == 0 {
		t.Fatal("fast-path mutant survived every fixture: TestFixpointFastPath cannot catch an interference stream the prefix minimum drops")
	}
	t.Logf("fast-path mutant caught by %d/%d fixtures", caught, len(cases))
}
