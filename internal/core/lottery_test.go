package core

import (
	"testing"

	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// lotteryLinear is the weighted lottery as it drew before the running-sum
// draw: it stores each weight itself and draws with a linear scan that sums
// the positive weights, scales one Float64 by the total, and scans a second
// running sum (falling back to a uniform Intn when no weight is positive).
// It is frozen here as the oracle lottery is pinned against.
func lotteryLinear(v *stateView, res SearchResult, rnd *rng.Rand) int {
	n := len(res.Candidates)
	var weights []float64
	var sum float64
	for _, i := range res.Candidates {
		den := v.deadline[i].Sub(v.now)
		var u float64
		if den > 0 {
			u = float64(v.remaining[i]) / float64(den)
		}
		weights = append(weights, u)
		sum += u
	}
	if res.IdleOK {
		idleW := 1 - sum
		if idleW < 0 {
			idleW = 0
		}
		weights = append(weights, idleW)
	}
	var total float64
	for _, x := range weights {
		if x > 0 {
			total += x
		}
	}
	k := -1
	if total <= 0 {
		k = rnd.Intn(len(weights))
	} else {
		target := rnd.Float64() * total
		var acc float64
		for i, x := range weights {
			if x <= 0 {
				continue
			}
			acc += x
			if target < acc {
				k = i
				break
			}
		}
		for i := len(weights) - 1; k < 0 && i >= 0; i-- {
			if weights[i] > 0 {
				k = i
			}
		}
	}
	if k == n {
		return IdleChoice
	}
	return res.Candidates[k]
}

// TestLotteryMatchesLinear pins the weighted lottery to lotteryLinear on
// random views: the same choice and the same next value of the stream after
// it. The views mix utilizations summing below and above 1 (an idle weight
// of 0), candidates whose weight is zero (no budget left, or a deadline at
// or before now), all-zero weights without idling (the Intn path), and up to
// 1024 candidates. The reference Select shares lottery, so the reference
// policy's differential cannot see a change in the draw; this test can.
func TestLotteryMatchesLinear(t *testing.T) {
	r := rng.New(0x10770)
	now := vtime.Time(17 * vtime.Millisecond)
	var zeroDraws, idleZero int
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(64)
		if trial%50 == 0 {
			n = 1024
		}
		states := randomStates(r, n, now)
		v := viewFromStates(states, now)
		allZero := trial%7 == 0
		var res SearchResult
		for i := range states {
			if r.Intn(3) == 0 {
				continue
			}
			switch {
			case allZero || r.Intn(8) == 0:
				v.remaining[i] = 0
			case r.Intn(16) == 0:
				v.deadline[i] = now.Add(-vtime.Duration(r.Intn(2)))
			}
			res.Candidates = append(res.Candidates, i)
		}
		res.IdleOK = !allZero && (len(res.Candidates) == 0 || r.Intn(2) == 0)
		if len(res.Candidates) == 0 && !res.IdleOK {
			continue
		}
		if allZero {
			zeroDraws++
		}
		seed := r.Uint64()
		a, b := rng.New(seed), rng.New(seed)
		got := lottery(v, res, SelectWeighted, a, nil)
		want := lotteryLinear(v, res, b)
		if got != want {
			t.Fatalf("trial %d (%d candidates, idle %v): lottery = %d, linear oracle = %d", trial, len(res.Candidates), res.IdleOK, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("trial %d: the two lotteries consumed different amounts of the stream", trial)
		}
		var sum float64
		for _, i := range res.Candidates {
			if den := v.deadline[i].Sub(now); den > 0 {
				sum += float64(v.remaining[i]) / float64(den)
			}
		}
		if res.IdleOK && sum >= 1 {
			idleZero++
		}
	}
	if zeroDraws == 0 || idleZero == 0 {
		t.Fatalf("trials drew %d all-zero lotteries and %d with an idle weight of 0; both must occur", zeroDraws, idleZero)
	}
}
