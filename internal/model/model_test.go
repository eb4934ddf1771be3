package model

import (
	"math"
	"testing"

	"timedice/internal/server"
	"timedice/internal/vtime"
)

func validSpec() SystemSpec {
	return SystemSpec{
		Name: "v",
		Partitions: []PartitionSpec{
			{Name: "A", Budget: vtime.MS(2), Period: vtime.MS(10),
				Tasks: []TaskSpec{{Name: "a1", Period: vtime.MS(20), WCET: vtime.MS(1)}}},
			{Name: "B", Budget: vtime.MS(3), Period: vtime.MS(20), Server: server.Deferrable,
				Tasks: []TaskSpec{
					{Name: "b1", Period: vtime.MS(40), WCET: vtime.MS(2)},
					{Name: "b2", Period: vtime.MS(80), WCET: vtime.MS(2)},
				}},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	var empty SystemSpec
	if err := empty.Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	bad := validSpec()
	bad.Partitions[0].Budget = vtime.MS(11)
	if err := bad.Validate(); err == nil {
		t.Error("budget > period accepted")
	}
	bad2 := validSpec()
	bad2.Partitions[1].Tasks[0].WCET = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero-WCET task accepted")
	}
}

func TestUtilization(t *testing.T) {
	s := validSpec()
	if got := s.Utilization(); got != 0.35 {
		t.Errorf("utilization = %v, want 0.35", got)
	}
	if got := s.Partitions[1].LocalUtilization(); math.Abs(got-0.075) > 1e-12 {
		t.Errorf("local utilization = %v, want 0.075", got)
	}
}

func TestBuild(t *testing.T) {
	built, err := validSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Partitions) != 2 {
		t.Fatalf("%d partitions", len(built.Partitions))
	}
	if built.Partitions[0].Priority != 0 || built.Partitions[1].Priority != 1 {
		t.Error("priorities should follow declaration order")
	}
	if built.Partitions[0].Server.PolicyKind() != server.Polling {
		t.Error("default server policy must be polling")
	}
	if built.Partitions[1].Server.PolicyKind() != server.Deferrable {
		t.Error("explicit server policy ignored")
	}
	if built.Task[TaskKey("B", "b2")] == nil {
		t.Error("task handle missing")
	}
	if built.Sched["A"] == nil {
		t.Error("scheduler handle missing")
	}
	if got := built.Sched["B"].NumTasks(); got != 2 {
		t.Errorf("B has %d tasks", got)
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	bad := validSpec()
	bad.Partitions[0].Period = 0
	if _, err := bad.Build(); err == nil {
		t.Error("invalid spec built")
	}
}

func TestTaskKey(t *testing.T) {
	if TaskKey("P", "t") != "P/t" {
		t.Error("task key format")
	}
}
