package engine

// SetScanStepping switches s to (or back from) the reference O(P) stepping
// paths, which re-read live partition state on every step instead of the
// event heap and the ready bitset. Only tests and benchmarks of this package
// reach it: the indexed-vs-scan differential, the golden and tie-break
// tests, and the scaling benchmark's scan baseline.
func (s *System) SetScanStepping(on bool) { s.scanStepping = on }
