//go:build timedice_mutation

package vtime

// Mutation build: Reciprocal.CeilDiv degrades to floor rounding, so the
// divisionless kernel undercounts every partial-period replenishment while
// the plain-division reference paths stay exact. See mutation_off.go for the
// contract; the point of this build is proving the reference-policy
// differential notices. It is a variable so each mutation test can switch
// it off to isolate its own mutant.
var recipRoundSkew int64 = 1

// SetRecipMutant switches the corrupted-reciprocal mutant on or off and
// returns its previous setting. It exists only in timedice_mutation builds.
func SetRecipMutant(on bool) (was bool) {
	was = recipRoundSkew != 0
	recipRoundSkew = 0
	if on {
		recipRoundSkew = 1
	}
	return was
}
