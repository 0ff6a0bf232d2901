package audit

// CheckBound exposes the direct bound-graph check to the external tests
// that hold it to the re-derivation it replaced.
var CheckBound = checkBound
