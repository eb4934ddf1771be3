package policies_test

import (
	"testing"

	"timedice/internal/core"
	"timedice/internal/policies"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

func TestStrings(t *testing.T) {
	cases := map[policies.Kind]string{
		policies.NoRandom:  "NoRandom",
		policies.TimeDiceU: "TimeDiceU",
		policies.TimeDiceW: "TimeDiceW",
		policies.TDMA:      "TDMA",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestBuildAllKinds(t *testing.T) {
	built, err := workload.ThreePartition().Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW, policies.TDMA} {
		pol, err := policies.Build(k, built.Partitions, policies.Options{})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if pol.Name() != k.String() {
			t.Errorf("%v built as %q", k, pol.Name())
		}
	}
	if _, err := policies.Build(policies.Kind(0), built.Partitions, policies.Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestQuantumOption(t *testing.T) {
	built, err := workload.ThreePartition().Build()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policies.Build(policies.TimeDiceW, built.Partitions, policies.Options{Quantum: vtime.MS(2)})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Quantum() != vtime.MS(2) {
		t.Errorf("quantum %v", pol.Quantum())
	}
	// Default quantum is MIN_INV_SIZE = 1ms.
	def, err := policies.Build(policies.TimeDiceW, built.Partitions, policies.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Quantum() != core.DefaultQuantum {
		t.Errorf("default quantum %v", def.Quantum())
	}
}
