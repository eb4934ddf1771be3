package check

// BytewiseDigestEvents exposes the byte-wise reference digest to the external
// tests, which need gen (an importer of check) to build real event streams.
var BytewiseDigestEvents = bytewiseDigestEvents
