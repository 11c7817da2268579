package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// withTaskHook installs a fault-injection hook for the duration of the
// test. TestTaskHook is global state, so hooked tests must not run in
// parallel.
func withTaskHook(t *testing.T, hook func(names1, names2 []string)) {
	t.Helper()
	TestTaskHook = hook
	t.Cleanup(func() { TestTaskHook = nil })
}

// TestTaskPanicIsInternalPairError: a crash inside one route-map task is
// recovered by the worker and reported as a structured ErrInternal
// PairError carrying chain provenance and the goroutine stack, at every
// pool size — and the engine (with its shared factory pool) stays
// healthy for the next call.
func TestTaskPanicIsInternalPairError(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 6, 2)
	withTaskHook(t, func(names1, _ []string) {
		for _, n := range names1 {
			if n == "POL3" {
				panic("injected task crash")
			}
		}
	})
	for _, workers := range []int{1, 4} {
		_, err := Diff(c1, c2, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: injected panic did not surface", workers)
		}
		var pe *PairError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PairError, got %T: %v", workers, err, err)
		}
		if !errors.Is(err, ErrInternal) || ErrKind(err) != "internal" {
			t.Fatalf("workers=%d: want ErrInternal, got %v", workers, err)
		}
		if pe.Stack == "" {
			t.Errorf("workers=%d: internal failure missing stack", workers)
		}
		if pe.File == "" || pe.Line == 0 {
			t.Errorf("workers=%d: missing provenance, got %q:%d", workers, pe.File, pe.Line)
		}
		if !strings.Contains(pe.Pair, "POL3") {
			t.Errorf("workers=%d: pair label %q does not name the chain", workers, pe.Pair)
		}
	}
	// The crash must not poison pooled factories: a clean run succeeds.
	TestTaskHook = nil
	if _, err := Diff(c1, c2, Options{Workers: 4}); err != nil {
		t.Fatalf("post-crash Diff failed: %v", err)
	}
}

// TestPanicIsolationKeepsSiblingResults: with Workers=4 a single crashing
// task fails its own chain while sibling tasks on other workers still
// compute — observed indirectly: the error names exactly the crashed
// chain, and rerunning without the hook yields the full report.
func TestPanicIsolationKeepsSiblingResults(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 8, 1)
	want, err := Diff(c1, c2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	withTaskHook(t, func(names1, _ []string) {
		for _, n := range names1 {
			if n == "POL5" {
				panic("boom")
			}
		}
	})
	_, err = Diff(c1, c2, Options{Workers: 4})
	var pe *PairError
	if !errors.As(err, &pe) || !strings.Contains(pe.Pair, "POL5") {
		t.Fatalf("want POL5 PairError, got %v", err)
	}
	TestTaskHook = nil
	rep, err := Diff(c1, c2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(rep); got != renderReport(want) {
		t.Fatal("report after recovered crash diverges from clean run")
	}
}

// TestPreCanceledContext: DiffContext on an already-canceled context
// returns ErrCanceled without doing semantic work, and the underlying
// context.Canceled stays reachable through errors.Is.
func TestPreCanceledContext(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DiffContext(ctx, c1, c2, Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
}

// TestCancelMidRun: a cancellation landing while tasks are in flight
// (injected deterministically via the task hook) surfaces as ErrCanceled
// with the chain's provenance.
func TestCancelMidRun(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 6, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withTaskHook(t, func(names1, _ []string) {
		for _, n := range names1 {
			if n == "POL2" {
				cancel()
			}
		}
	})
	_, err := DiffContext(ctx, c1, c2, Options{Workers: 1})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if ErrKind(err) != "canceled" {
		t.Fatalf("ErrKind = %q, want canceled", ErrKind(err))
	}
}

// TestTimeoutOption: Options.Timeout derives the deadline internally;
// an immediately-expired one classifies as canceled and wraps
// context.DeadlineExceeded (ctxErr observes a passed deadline even
// before the timer fires, keeping tiny timeouts deterministic).
func TestTimeoutOption(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 2, 1)
	_, err := Diff(c1, c2, Options{Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if ErrKind(err) != "canceled" {
		t.Fatalf("ErrKind = %q, want canceled", ErrKind(err))
	}
}

// TestBudgetAbortDeterministic: a MaxNodes ceiling far below what the
// comparison allocates aborts with ErrBudget at Workers=1 and Workers=4
// alike. The budget is a per-task ceiling measured from each task's
// BeginWork baseline, so classification (though not necessarily the
// exact failing chain) is stable across pool sizes.
func TestBudgetAbortDeterministic(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 4, 1)
	for _, workers := range []int{1, 4} {
		_, err := Diff(c1, c2, Options{Workers: workers, MaxNodes: 8})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d: want ErrBudget, got %v", workers, err)
		}
		if ErrKind(err) != "budget" {
			t.Fatalf("workers=%d: ErrKind = %q, want budget", workers, ErrKind(err))
		}
	}
	// A generous budget admits the same comparison.
	if _, err := Diff(c1, c2, Options{Workers: 4, MaxNodes: 1 << 22}); err != nil {
		t.Fatalf("generous budget still aborted: %v", err)
	}
}

// TestBudgetAbortWithPolicyCache: the sequential cross-pair path must
// also honor the budget, invalidate the poisoned cache, and recover on
// the next (unbudgeted) call through the same cache.
func TestBudgetAbortWithPolicyCache(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 4, 1)
	pc := NewPolicyCache()
	_, err := Diff(c1, c2, Options{Workers: 1, PolicyCache: pc, MaxNodes: 8})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("cached path ignored the budget: %v", err)
	}
	rep, err := Diff(c1, c2, Options{Workers: 1, PolicyCache: pc})
	if err != nil {
		t.Fatalf("cache did not recover after budget abort: %v", err)
	}
	want, err := Diff(c1, c2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if renderReport(rep) != renderReport(want) {
		t.Fatal("post-abort cached report diverges from a fresh run")
	}
}

// TestPolicyCacheRelease: Release leaves the cache cold, whether its
// last call succeeded or a budget abort invalidated it, and a released
// cache that is used again rebuilds and reports exactly as before.
func TestPolicyCacheRelease(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 4, 1)
	want, err := Diff(c1, c2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPolicyCache()
	for _, maxNodes := range []int{0, 8} {
		_, err := Diff(c1, c2, Options{Workers: 1, PolicyCache: pc, MaxNodes: maxNodes})
		if (maxNodes != 0) != errors.Is(err, ErrBudget) {
			t.Fatalf("MaxNodes %d: %v", maxNodes, err)
		}
		pc.Release()
		if pc.enc != nil || pc.fp != "" || len(pc.paths) != 0 {
			t.Fatalf("MaxNodes %d: cache not cold after Release", maxNodes)
		}
		rebuilds := pc.Rebuilds
		rep, err := Diff(c1, c2, Options{Workers: 1, PolicyCache: pc})
		if err != nil {
			t.Fatal(err)
		}
		if pc.Rebuilds != rebuilds+1 {
			t.Fatalf("MaxNodes %d: released cache served without a rebuild", maxNodes)
		}
		if renderReport(rep) != renderReport(want) {
			t.Fatalf("MaxNodes %d: report after Release diverges", maxNodes)
		}
	}
}

// TestPairErrorRendering: the Error string carries pair, kind, cause,
// and file:line provenance in a greppable shape.
func TestPairErrorRendering(t *testing.T) {
	e := &PairError{
		Pair: "POL1 vs POL1", Kind: ErrBudget, File: "r1.cfg", Line: 12,
		Err: errors.New("7000 nodes allocated (budget 4096)"),
	}
	got := e.Error()
	for _, part := range []string{"POL1 vs POL1", "resource budget exceeded", "r1.cfg:12"} {
		if !strings.Contains(got, part) {
			t.Errorf("Error() = %q, missing %q", got, part)
		}
	}
	if ErrKind(e) != "budget" {
		t.Errorf("ErrKind = %q", ErrKind(e))
	}
}
