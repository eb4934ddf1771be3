package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSectionsMatchBenchmark pins the section table to the benchmark
// declaration: BENCHMARK.json times each section under an
// experiments.<Name>_s per-layer metric, and cmd/benchrec keeps its own
// list of the sections under those names, so the table's names must be the
// declared ones in the same order.
func TestSectionsMatchBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range decl.PerLayer {
		if name, ok := strings.CutPrefix(m.Name, "experiments."); ok {
			declared = append(declared, strings.TrimSuffix(name, "_s"))
		}
	}
	var names []string
	for _, sec := range Sections {
		names = append(names, sec.Name)
	}
	if strings.Join(names, " ") != strings.Join(declared, " ") {
		t.Errorf("Sections names\n  %v\nBENCHMARK.json experiments.*_s names\n  %v", names, declared)
	}
}

// TestSectionsWellFormed: names, titles and covertbench keys each name one
// section, every section can run, and every host-measured section has a
// canonicaliser for the parallel-determinism test.
func TestSectionsWellFormed(t *testing.T) {
	seen := map[string]string{}
	claim := func(kind, v, name string) {
		if prev, dup := seen[kind+v]; dup {
			t.Errorf("%s %q used by both %s and %s", kind, v, prev, name)
		}
		seen[kind+v] = name
	}
	for _, sec := range Sections {
		if sec.Name == "" || sec.Title == "" || sec.Run == nil {
			t.Errorf("incomplete section %+v", sec)
		}
		claim("name", sec.Name, sec.Name)
		claim("title", sec.Title, sec.Name)
		if sec.Key != "" {
			claim("key", sec.Key, sec.Name)
		}
		if sec.HostMeasured && hostCanon[sec.Name] == nil {
			t.Errorf("host-measured section %s has no entry in hostCanon", sec.Name)
		}
		if !sec.HostMeasured && hostCanon[sec.Name] != nil {
			t.Errorf("section %s has a hostCanon entry but is not host-measured", sec.Name)
		}
	}
}
