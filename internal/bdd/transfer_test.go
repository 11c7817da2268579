package bdd

import "testing"

// randomFn builds a pseudo-random function over nvars variables on f,
// deterministic in seed, mixing And/Or/Xor/Not so complement edges and
// shared subgraphs both appear.
func randomFn(f *Factory, nvars int, seed uint64, ops int) Node {
	state := seed
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	n := f.Var(next(nvars))
	for i := 0; i < ops; i++ {
		v := f.Var(next(nvars))
		switch next(4) {
		case 0:
			n = f.And(n, v)
		case 1:
			n = f.Or(n, v)
		case 2:
			n = f.Xor(n, v)
		default:
			n = f.Or(f.Not(n), v)
		}
	}
	return n
}

// TestTransferPreservesFunction: a transferred node denotes the same
// boolean function on the destination factory, including complemented
// references.
func TestTransferPreservesFunction(t *testing.T) {
	const nvars = 8
	for seed := uint64(1); seed <= 20; seed++ {
		src := NewFactory(nvars)
		dst := NewFactory(nvars)
		// Unrelated nodes on dst first, so the two arenas number the
		// same function differently: transfer must rebuild, not copy.
		randomFn(dst, nvars, seed+100, 10)
		n := randomFn(src, nvars, seed, 30)
		memo := map[Node]Node{}
		got := Transfer(dst, src, n, memo)
		gotNeg := Transfer(dst, src, n^1, memo)
		if gotNeg != got^1 {
			t.Fatalf("seed %d: complement not preserved", seed)
		}
		a := make(Assignment, nvars)
		for bits := 0; bits < 1<<nvars; bits++ {
			for v := 0; v < nvars; v++ {
				a[v] = int8(bits >> v & 1)
			}
			if src.Eval(n, a) != dst.Eval(got, a) {
				t.Fatalf("seed %d: functions differ at assignment %b", seed, bits)
			}
		}
	}
}

// TestAndCofactors: the fused kernel agrees with the plain And pair on
// random functions, in both cold and warm cache states, including every
// terminal shape.
func TestAndCofactors(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		f := NewFactory(10)
		a := randomFn(f, 10, seed, 40)
		b := randomFn(f, 10, seed*31+7, 40)
		ab, anb := f.AndCofactors(a, b)
		if want := f.And(a, b); ab != want {
			t.Fatalf("seed %d: a∧b = %d, want %d", seed, ab, want)
		}
		if want := f.And(a, b^1); anb != want {
			t.Fatalf("seed %d: a∧¬b = %d, want %d", seed, anb, want)
		}
		// Warm path: the plain-And results above populated the cache; the
		// fused call must return identical nodes from it.
		ab2, anb2 := f.AndCofactors(a, b)
		if ab2 != ab || anb2 != anb {
			t.Fatalf("seed %d: warm fused call diverges", seed)
		}
		for _, c := range []struct{ x, y Node }{
			{False, b}, {True, b}, {a, False}, {a, True}, {a, a}, {a, a ^ 1},
		} {
			gotAB, gotANB := f.AndCofactors(c.x, c.y)
			if gotAB != f.And(c.x, c.y) || gotANB != f.And(c.x, c.y^1) {
				t.Fatalf("seed %d: terminal shape (%d,%d) diverges", seed, c.x, c.y)
			}
		}
	}
}

// TestTransferMemoSharing: the memo makes repeated transfers of the same
// node free and consistent.
func TestTransferMemoSharing(t *testing.T) {
	src := NewFactory(6)
	dst := NewFactory(6)
	n := randomFn(src, 6, 7, 25)
	memo := map[Node]Node{}
	a := Transfer(dst, src, n, memo)
	b := Transfer(dst, src, n, memo)
	if a != b {
		t.Fatalf("repeated transfer differs: %d vs %d", a, b)
	}
	if got := Transfer(dst, src, False, memo); got != False {
		t.Fatalf("Transfer(False) = %d", got)
	}
	if got := Transfer(dst, src, True, memo); got != True {
		t.Fatalf("Transfer(True) = %d", got)
	}
}
