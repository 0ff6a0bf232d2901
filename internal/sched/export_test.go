package sched

// Fixtures shared with the external test package (oracle_test.go),
// which imports schedtest and so cannot live in package sched.
var (
	ChainGraph = chainGraph
	WideGraph  = wideGraph
	MoveGraph  = moveGraph
)
