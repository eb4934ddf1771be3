package main

import (
	"math"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over minutes as other tenants come and go. Every run therefore interleaves
// a calibration kernel — fixed, benchmark-owned work the simulator never
// runs, so no change to the simulator moves it — with its set-ups and
// rounds, and scales its end-to-end times by refCalibration over the
// kernel's median time in the same phase. An end-to-end time then reads as
// wall time on the reference host at its reference speed. Over 8- and
// 10-run sets on that host this cut the quartile spread of ops_per_s from
// 0.08–0.35 raw to 0.03–0.15. dense-P1024 and paper-quick, which keep both
// vCPUs busy, stay the noisiest: the kernel runs on one, and dense's shard
// barrier also waits on the other.

// refCalibration is the kernel's median time on the host baseline.json
// records, when that host ran quietly.
const refCalibration = 20 * time.Millisecond

// calShare is the share of a phase's time spent calibrating before the next
// phase of its kind. Passes on that host spread by 0.12–0.2 within one run,
// so a workload with few long rounds needs several passes per round: at one
// pass per 3 s round, the kernel's median added more noise than it removed.
const calShare = 0.1

const (
	calWords = 1 << 18 // a 2 MiB table: larger than L2, so loads reach L3
	calIters = 1 << 20
	chaseLen = 1 << 21 // an 8 MiB cycle: most loads miss the caches

	// calBytes is the memory the kernel's tables hold resident.
	calBytes = calWords*8 + chaseLen*4
)

// calibrator runs the kernel. Its time is the geometric mean of two parts
// timed separately: compute (random read-modify-writes with a dependent load
// and a data-dependent branch) and memory latency (a pointer chase). The
// workloads mix both: sparse stepping is bound by memory latency, the
// decision kernel and the covert-channel trials by compute.
type calibrator struct {
	table []uint64
	chase []uint32
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, calWords), chase: make([]uint32, chaseLen)}
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	// Sattolo's algorithm: one random cycle through every entry.
	x := uint64(0x9e3779b97f4a7c15)
	for i := chaseLen - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// pass times one run of the kernel.
func (c *calibrator) pass() float64 {
	t0 := time.Now()
	p := uint32(0)
	for range calIters / 4 {
		p = c.chase[p]
	}
	latency := time.Since(t0).Seconds()

	t0 = time.Now()
	x, acc := uint64(1), uint64(p)
	const m = calWords - 1
	for range calIters {
		x = xorshift(x)
		j := x & m
		c.table[j] += x
		acc += c.table[(j*7+1)&m]
		if acc&1 == 0 {
			acc ^= x
		} else {
			acc += x >> 3
		}
	}
	c.sink += acc
	return math.Sqrt(latency * time.Since(t0).Seconds())
}

// sample appends the times of kernel passes to into: at least one, and
// enough to fill calShare of prev, the length of the previous phase it
// calibrates.
func (c *calibrator) sample(into *[]float64, prev time.Duration) {
	t0 := time.Now()
	for {
		*into = append(*into, c.pass())
		if time.Since(t0) >= time.Duration(calShare*float64(prev)) {
			return
		}
	}
}

// scale is the factor that turns a wall time measured while the kernel took
// a median of the given passes into reference-host time.
func scale(passes []float64) float64 {
	return refCalibration.Seconds() / median(passes)
}
