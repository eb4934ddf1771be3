//go:build timedice_mutation

package vtime

// Mutation build: Reciprocal.CeilDiv degrades to floor rounding, so the
// divisionless kernel undercounts every partial-period replenishment while
// the plain-division reference paths stay exact. See mutation_off.go for the
// contract; the point of this build is proving the indexed-vs-scan
// differential digest suite notices. It is a variable so a mutation test can
// switch it off to isolate another mutant the same differential must catch.
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
