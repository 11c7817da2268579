package campion

import (
	"context"

	"repro/internal/repair"
)

// Repair-related aliases: the repair search is implemented in
// internal/repair; these give external callers the same one-stop surface
// the diff engine has.
type (
	// RepairOptions tunes the repair search (edit budget, candidate
	// budget, sampling, node budget, observability sinks).
	RepairOptions = repair.Options
	// RepairResult is the outcome of one Repair call: per-pair outcomes,
	// and the fully patched config when every differing pair repaired.
	RepairResult = repair.Result
	// RepairPair is the per-policy-pair repair outcome.
	RepairPair = repair.PairRepair
	// RepairCandidate is one evaluated edit sequence with its score.
	RepairCandidate = repair.Candidate
	// RepairEdit is a single IR-level edit of a candidate repair.
	RepairEdit = repair.Edit
	// RepairPatch is the rendered text patch for config B.
	RepairPatch = repair.TextPatch
)

// Repair searches for minimal oracle-validated edits to cfg2 that make
// every matched policy pair behaviorally equivalent to cfg1. See
// internal/repair for the search and acceptance semantics.
func Repair(ctx context.Context, cfg1, cfg2 *Config, opts RepairOptions) (*RepairResult, error) {
	return repair.Run(ctx, cfg1, cfg2, opts)
}

// RepairVerify re-parses patched config-B text and confirms the result
// is equivalent to cfg1 under both the symbolic engine and the concrete
// oracle — the final gate a rendered patch must pass.
func RepairVerify(cfg1 *Config, vendor Vendor, file, text string, opts RepairOptions) (*Config, error) {
	return repair.ReparseVerify(cfg1, vendor, file, text, opts)
}
