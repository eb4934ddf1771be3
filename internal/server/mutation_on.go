//go:build timedice_mutation

package server

import "timedice/internal/vtime"

// replenishShort under the timedice_mutation tag: every boundary
// replenishment (polling/deferrable) delivers 100µs less than the full
// budget. The run stays self-consistent — the observer reports the shorted
// amount, the engine never overdraws — so only an oracle that knows the
// server contract ("a boundary replenish restores the full budget") can
// catch it. check's TestMutationOraclesFire asserts it does. It is a
// variable so that other mutation tests can switch it off.
var replenishShort vtime.Duration = mutantShort

const mutantShort = 100 * vtime.Microsecond

// SetReplenishMutant switches the shorted-replenishment mutant on or off and
// returns its previous setting. It exists only in timedice_mutation builds.
func SetReplenishMutant(on bool) (was bool) {
	was = replenishShort != 0
	replenishShort = 0
	if on {
		replenishShort = mutantShort
	}
	return was
}
