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
// positional argument fails before any experiment runs.
func TestStrayArgumentsRejected(t *testing.T) {
	err := run([]string{"-parallel", "-1", "stray"})
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray"]`) {
		t.Fatalf("run(-parallel -1 stray) = %v, want an unexpected-arguments error", err)
	}
}

// TestFigKeys: every -fig key the docs name selects exactly its section, in
// any case, "all" selects every keyed section, and an unknown key fails with
// an error that lists the valid ones.
func TestFigKeys(t *testing.T) {
	documented := []string{"4", "12", "13", "14", "15", "car", "ablation", "rate", "multipair", "receivers", "detect", "campaign"}
	for _, key := range documented {
		if sel, _ := selectFigs(strings.ToUpper(key)); len(sel) != 1 || sel[0].Key != key {
			t.Errorf("selectFigs(%q) = %v; want the one section keyed %q", key, sel, key)
		}
	}
	if all, keys := selectFigs("all"); len(all) != len(keys) || len(keys) != len(documented) {
		t.Errorf("selectFigs(all) selected %d sections of %d keys; want all %d documented ones", len(all), len(keys), len(documented))
	}
	err := run([]string{"-fig", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("run(-fig bogus) = %v, want an unknown-experiment error", err)
	}
	if keys := strings.Join(documented, ", "); !strings.Contains(err.Error(), keys) {
		t.Errorf("run(-fig bogus) error %q does not list the keys %s", err, keys)
	}
}
