package engine_test

// Layout-independence tests: every partition lives in one record (partition,
// server, scheduler, task descriptors, first job), and Fork, Restore and
// Reset must still produce systems that share no mutable memory with their
// source and continue it exactly.

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"timedice/internal/engine"
	"timedice/internal/policies"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// snapshotDigest is a sha256 over the system's snapshot encoding.
func snapshotDigest(t *testing.T, sys *engine.System) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestCopiesContinueSparseSystem copies a warmed workload.Sparse(4096)
// system four ways — Fork, a fork of that fork, Restore into a fresh build,
// and a fresh build reset and replayed to the same instant — runs each and
// the original for 5 simulated seconds, and requires equal snapshot digests
// and State counters. Before the original moves, it steps every copy and
// requires the original's snapshot (servers, schedulers, task states, heap
// keys) to be unchanged, and checks that no copy's partition record (which
// holds its server and scheduler) or task descriptor is the original's.
func TestCopiesContinueSparseSystem(t *testing.T) {
	const n = 4096
	// Half a millisecond after 2s, a batch of cold releases is still queued
	// behind the hot partitions, so the copies must clone pending jobs.
	mid := vtime.Time(0).Add(2*vtime.Second + 500*vtime.Microsecond)
	end := mid.Add(5 * vtime.Second)
	orig := buildSparse(t, n)
	for orig.Now() < mid {
		orig.Step(end)
	}
	mid = orig.Now()
	if pending := pendingJobs(orig); pending < 10 {
		t.Fatalf("only %d pending jobs at %v; the copies would clone no backlog", pending, mid)
	}
	var snap bytes.Buffer
	if err := orig.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	before := snapshotDigest(t, orig)

	fork := orig.Fork()
	forkOfFork := fork.Fork()
	restored := buildSparse(t, n)
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	replayed := buildKind(t, workload.Sparse(n), policies.NoRandom, 7)
	replayed.RunFor(vtime.Second)
	replayed.ResetSeed(1)
	for replayed.Now() < mid {
		replayed.Step(end)
	}

	copies := map[string]*engine.System{
		"fork": fork, "fork of fork": forkOfFork, "restored": restored, "replayed": replayed,
	}
	for name, c := range copies {
		for i, p := range c.Partitions {
			op := orig.Partitions[i]
			if p == op {
				t.Fatalf("%s: partition %d shares its record with the original", name, i)
			}
			for j := range p.Local.NumTasks() {
				if p.Local.Task(j) == op.Local.Task(j) {
					t.Fatalf("%s: partition %d task %d shares its descriptor with the original", name, i, j)
				}
			}
		}
		c.Run(end)
	}
	if got := snapshotDigest(t, orig); got != before {
		t.Fatal("stepping the copies changed the original's state")
	}

	orig.Run(end)
	want, wantCounters := snapshotDigest(t, orig), orig.Counters.Only(engine.State)
	for name, c := range copies {
		if got := snapshotDigest(t, c); got != want {
			t.Errorf("%s: snapshot digest differs from the original's after 5s", name)
		}
		if got := c.Counters.Only(engine.State); got != wantCounters {
			t.Errorf("%s: counters %+v, original %+v", name, got, wantCounters)
		}
	}
}

// pendingJobs counts the jobs pending across all partitions.
func pendingJobs(sys *engine.System) int {
	n := 0
	for _, p := range sys.Partitions {
		for _, ts := range p.Local.SaveState().Tasks {
			n += len(ts.Pending)
		}
	}
	return n
}
