package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/campion"
)

// repairCmd implements `campion repair A.cfg B.cfg`: localize the
// semantic differences of the pair, search clause- and list-level edits
// to B that eliminate them, and emit the minimal verified repair as a
// text patch. Exit 0 when the pair is equivalent (possibly after the
// found repair), 1 when differences remain unrepaired, 2 on errors.
func repairCmd(args []string) int {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	budget := fs.Int("budget", 2, "maximum number of composed edits per repair")
	maxCandidates := fs.Int("max-candidates", 0, "candidate evaluation budget across all depths (0 = default 4000)")
	topk := fs.Int("topk", 3, "report up to K verified repairs (or best partial candidates)")
	samples := fs.Int("samples", 0, "routes sampled for the concrete oracle cross-check (0 = default 48)")
	seed := fs.Int64("seed", 0, "sampling RNG seed (the search itself is deterministic)")
	timeout := fs.Duration("timeout", 0, "deadline for the whole repair run (0 = none)")
	maxNodes := fs.Int("max-nodes", 0, "BDD node budget per candidate evaluation (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable result instead of the text patch")
	apply := fs.Bool("apply", false, "rewrite CONFIG2 in place with the verified patched text")
	vendor1 := fs.String("vendor1", "auto", "dialect of CONFIG1: auto, cisco, juniper, arista")
	vendor2 := fs.String("vendor2", "auto", "dialect of CONFIG2: auto, cisco, juniper, arista")
	journalPath := fs.String("journal", "", "append a JSONL journal of per-pair repair events to this file")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: campion repair [flags] CONFIG1 CONFIG2\n")
		fmt.Fprintf(os.Stderr, "searches for minimal verified edits to CONFIG2 that make it equivalent to CONFIG1\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	cfg1, err := load(fs.Arg(0), *vendor1)
	if err != nil {
		return fatal(err)
	}
	cfg2, err := load(fs.Arg(1), *vendor2)
	if err != nil {
		return fatal(err)
	}
	braw, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := campion.RepairOptions{
		MaxEdits: *budget, MaxCandidates: *maxCandidates, TopK: *topk,
		Samples: *samples, Seed: *seed, Timeout: *timeout, MaxNodes: *maxNodes,
		Metrics: campion.DefaultMetrics(),
	}
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			return fatal(err)
		}
		defer jf.Close()
		opts.Journal = campion.NewJournal(jf)
	}

	res, err := campion.Repair(ctx, cfg1, cfg2, opts)
	if err != nil {
		return fatal(err)
	}

	// Render the patch when the repair is complete and every edit has a
	// vendor-text form; a repair can verify at the IR level yet be
	// inexpressible in B's dialect, which is reported, not hidden.
	var patch *campion.RepairPatch
	var patchErr error
	if res.Repaired() && len(res.Edits()) > 0 {
		patch, patchErr = res.Patch(string(braw))
		if patchErr == nil {
			// The emitted text must round-trip: re-parse and re-verify
			// before anyone trusts (or applies) it.
			if _, err := campion.RepairVerify(cfg1, cfg2.Vendor, fs.Arg(1), patch.Patched, opts); err != nil {
				patch, patchErr = nil, fmt.Errorf("rendered patch failed verification: %w", err)
			}
		}
	}

	if *jsonOut {
		if err := writeRepairJSON(os.Stdout, res, patch, patchErr); err != nil {
			return fatal(err)
		}
	} else {
		writeRepairText(os.Stdout, res, patch, patchErr)
	}

	if *apply {
		if patch == nil {
			fmt.Fprintln(os.Stderr, "campion: -apply: no verified renderable patch to apply")
			return 1
		}
		if err := os.WriteFile(fs.Arg(1), []byte(patch.Patched), 0o644); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(os.Stderr, "campion: applied %d edit(s) to %s\n", len(res.Edits()), fs.Arg(1))
	}

	for _, p := range res.Pairs {
		if p.Err != nil {
			return 2
		}
	}
	if !res.Repaired() {
		return 1
	}
	return 0
}

// writeRepairText renders the human-readable outcome: per-pair status,
// the winning edits, alternatives, then the patch itself.
func writeRepairText(w *os.File, res *campion.RepairResult, patch *campion.RepairPatch, patchErr error) {
	for _, p := range res.Pairs {
		fmt.Fprintf(w, "=== %s ===\n", p.Pair)
		switch {
		case p.Err != nil:
			fmt.Fprintf(w, "error: %v\n", p.Err)
			continue
		case p.InitialDiffs == 0:
			fmt.Fprintf(w, "equivalent (no repair needed)\n")
			continue
		case p.Repair != nil:
			fmt.Fprintf(w, "repaired: %d diff region(s) eliminated by %d edit(s), size %d (depth %d, %d candidates, %v)\n",
				p.InitialDiffs, len(p.Repair.Edits), p.Repair.Size, p.Depth, p.Candidates, p.Elapsed.Round(time.Millisecond))
			for _, e := range p.Repair.Edits {
				fmt.Fprintf(w, "  - %s\n", e.Describe())
			}
		default:
			fmt.Fprintf(w, "NOT repaired: %d diff region(s) remain after %d candidates (depth %d)\n",
				p.InitialDiffs, p.Candidates, p.Depth)
		}
		for i, alt := range p.Alternatives {
			kind := "alternative"
			if !alt.Verified {
				kind = "partial"
			}
			fmt.Fprintf(w, "  %s %d (size %d, residual %d): %s\n", kind, i+1, alt.Size, alt.Residual, alt.Describe())
			for _, r := range alt.Residuals {
				fmt.Fprintf(w, "      residual: %s\n", r)
			}
		}
		if p.OracleRejections > 0 {
			fmt.Fprintf(w, "  note: %d candidate(s) passed symbolically but were refuted by the concrete oracle\n",
				p.OracleRejections)
		}
	}
	switch {
	case patch != nil:
		fmt.Fprint(w, patch.Text)
	case patchErr != nil:
		fmt.Fprintf(w, "(repair verified at the IR level but has no vendor-text patch: %v)\n", patchErr)
	}
}

// repairJSON is the machine-readable shape of a repair run.
type repairJSON struct {
	Repaired     bool             `json:"repaired"`
	InitialDiffs int              `json:"initial_diffs"`
	Pairs        []repairPairJSON `json:"pairs"`
	Patch        string           `json:"patch,omitempty"`
	PatchError   string           `json:"patch_error,omitempty"`
	Conflicts    []string         `json:"conflicts,omitempty"`
}

type repairPairJSON struct {
	Pair             string           `json:"pair"`
	Kind             string           `json:"kind"`
	InitialDiffs     int              `json:"initial_diffs"`
	Depth            int              `json:"depth"`
	Candidates       int              `json:"candidates"`
	OracleRejections int              `json:"oracle_rejections,omitempty"`
	ElapsedMS        int64            `json:"elapsed_ms"`
	Repair           *repairCandJSON  `json:"repair,omitempty"`
	Alternatives     []repairCandJSON `json:"alternatives,omitempty"`
	Err              string           `json:"error,omitempty"`
}

type repairCandJSON struct {
	Edits      []string `json:"edits"`
	Size       int      `json:"size"`
	Residual   int      `json:"residual"`
	Residuals  []string `json:"residuals,omitempty"`
	Verified   bool     `json:"verified"`
	Renderable bool     `json:"renderable"`
}

func candJSON(c campion.RepairCandidate) repairCandJSON {
	out := repairCandJSON{
		Size: c.Size, Residual: c.Residual, Residuals: c.Residuals,
		Verified: c.Verified, Renderable: c.Renderable,
	}
	for _, e := range c.Edits {
		out.Edits = append(out.Edits, e.Describe())
	}
	return out
}

func writeRepairJSON(w *os.File, res *campion.RepairResult, patch *campion.RepairPatch, patchErr error) error {
	out := repairJSON{
		Repaired:     res.Repaired(),
		InitialDiffs: res.TotalDiffs(),
		Conflicts:    res.Conflicts,
	}
	if patch != nil {
		out.Patch = patch.Text
	}
	if patchErr != nil {
		out.PatchError = patchErr.Error()
	}
	for _, p := range res.Pairs {
		pj := repairPairJSON{
			Pair: p.Pair.String(), Kind: p.Kind(), InitialDiffs: p.InitialDiffs,
			Depth: p.Depth, Candidates: p.Candidates, OracleRejections: p.OracleRejections,
			ElapsedMS: p.Elapsed.Milliseconds(),
		}
		if p.Repair != nil {
			cj := candJSON(*p.Repair)
			pj.Repair = &cj
		}
		for _, alt := range p.Alternatives {
			pj.Alternatives = append(pj.Alternatives, candJSON(alt))
		}
		if p.Err != nil {
			pj.Err = p.Err.Error()
		}
		out.Pairs = append(out.Pairs, pj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
