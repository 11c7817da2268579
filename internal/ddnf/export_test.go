package ddnf

// Test-only exports for the external golden-range test.
var (
	BuildReference = buildReference
	DAGDiff        = dagDiff
)
