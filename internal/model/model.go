// Package model defines the declarative description of a simulated system —
// partitions, budgets, periods, and task sets — shared by the workload
// generators, the schedulability analyses, and the simulator builder.
package model

import (
	"fmt"

	"timedice/internal/partition"
	"timedice/internal/server"
	"timedice/internal/task"
	"timedice/internal/vtime"
)

// TaskSpec describes one sporadic task.
type TaskSpec struct {
	Name     string
	Period   vtime.Duration // minimum inter-arrival p
	WCET     vtime.Duration // worst-case execution time e
	Deadline vtime.Duration // 0 ⇒ implicit (= Period)
	Offset   vtime.Duration
}

// PartitionSpec describes one partition: its budget server parameters and its
// local task set in decreasing local-priority order.
type PartitionSpec struct {
	Name   string
	Budget vtime.Duration // B_i
	Period vtime.Duration // T_i
	Server server.Policy  // zero ⇒ server.Polling
	Tasks  []TaskSpec
}

// Utilization returns B_i/T_i.
func (p PartitionSpec) Utilization() float64 {
	return float64(p.Budget) / float64(p.Period)
}

// SystemSpec describes a complete system. Partitions are in decreasing
// priority order: Partitions[0] is the highest-priority partition.
type SystemSpec struct {
	Name       string
	Partitions []PartitionSpec
}

// Utilization returns Σ B_i/T_i.
func (s SystemSpec) Utilization() float64 {
	var u float64
	for _, p := range s.Partitions {
		u += p.Utilization()
	}
	return u
}

// Validate checks the static parameters.
func (s SystemSpec) Validate() error {
	if len(s.Partitions) == 0 {
		return fmt.Errorf("system %q: no partitions", s.Name)
	}
	for _, p := range s.Partitions {
		if p.Budget <= 0 || p.Period <= 0 || p.Budget > p.Period {
			return fmt.Errorf("partition %q: invalid budget %v / period %v", p.Name, p.Budget, p.Period)
		}
		for _, t := range p.Tasks {
			ts := task.Task{Name: t.Name, Period: t.Period, WCET: t.WCET, Deadline: t.Deadline, Offset: t.Offset}
			if err := ts.Validate(); err != nil {
				return fmt.Errorf("partition %q: %w", p.Name, err)
			}
		}
	}
	return nil
}

// Built is a realized system: live partitions plus handles to the task
// objects so callers (e.g. the covert-channel framework) can attach
// execution-time and inter-arrival hooks before the simulation starts.
type Built struct {
	Partitions []*partition.Partition
	// Task maps "partition/task" names to the live task objects.
	Task map[string]*task.Task
	// Sched maps partition names to their local schedulers.
	Sched map[string]*task.Scheduler
}

// TaskKey returns the lookup key Built.Task uses.
func TaskKey(partitionName, taskName string) string {
	return partitionName + "/" + taskName
}

// Build realizes the spec into live partitions (priority = slice order).
// Each partition is built in place in its own record (see partition.New);
// Task and Sched point into those records.
func (s SystemSpec) Build() (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &Built{
		Partitions: make([]*partition.Partition, 0, len(s.Partitions)),
		Task:       make(map[string]*task.Task, s.taskCount()),
		Sched:      make(map[string]*task.Scheduler, len(s.Partitions)),
	}
	var tasks []task.Task // reused: partition.New copies the descriptors
	for i, ps := range s.Partitions {
		pol := ps.Server
		if pol == 0 {
			pol = server.Polling
		}
		tasks = tasks[:0]
		for _, ts := range ps.Tasks {
			tasks = append(tasks, task.Task{
				Name:     ts.Name,
				Period:   ts.Period,
				WCET:     ts.WCET,
				Deadline: ts.Deadline,
				Offset:   ts.Offset,
			})
		}
		part, err := partition.New(ps.Name, i, ps.Budget, ps.Period, pol, tasks)
		if err != nil {
			return nil, err
		}
		for j, ts := range ps.Tasks {
			b.Task[TaskKey(ps.Name, ts.Name)] = part.Local.Task(j)
		}
		b.Partitions = append(b.Partitions, part)
		b.Sched[ps.Name] = &part.Local
	}
	return b, nil
}

// taskCount returns the number of tasks across all partitions.
func (s SystemSpec) taskCount() int {
	n := 0
	for _, p := range s.Partitions {
		n += len(p.Tasks)
	}
	return n
}
