package bdd

import "fmt"

// Transfer copies the function rooted at n in src into dst, returning the
// equivalent node on dst. The copy goes variable-by-variable — each src
// node branching on variable v becomes an Ite(Var(v), high', low') on
// dst, which re-canonicalizes it in dst's own arena. memo
// caches src-to-dst translations across calls for the same factory pair
// (pass the same map when transferring many roots); complement edges
// translate for free by memoizing only regular references and re-applying
// the complement bit, so a function and its negation cost one traversal.
//
// The caller must guarantee every variable in n's support exists on dst.
// Transfer is the merge primitive of the intra-pair striped diff: stripe
// results computed on private factories are replayed onto the main
// factory before localization.
func Transfer(dst, src *Factory, n Node, memo map[Node]Node) Node {
	if src.numVars > dst.numVars {
		panic(fmt.Sprintf("bdd: Transfer from %d-var factory into %d-var factory",
			src.numVars, dst.numVars))
	}
	var rec func(Node) Node
	rec = func(m Node) Node {
		if m <= True {
			return m
		}
		reg := m &^ 1
		if r, ok := memo[reg]; ok {
			return r ^ (m & 1)
		}
		d := src.nodes[reg>>1]
		lo := rec(d.low)
		hi := rec(d.high)
		r := dst.Ite(dst.Var(int(d.level)), hi, lo)
		memo[reg] = r
		return r ^ (m & 1)
	}
	return rec(n)
}
