// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with complement edges, the symbolic set representation underlying
// Campion's SemanticDiff and HeaderLocalize algorithms (the role JavaBDD
// plays in the original system).
//
// A Factory owns an arena of nodes; a Node is a tagged reference into that
// arena: the high bits index the arena, the lowest bit marks a complemented
// (negated) edge. Nodes are hash-consed and the complement tag is kept
// canonical (the low edge of a stored node is never complemented), so
// structural equality of Node values implies semantic equivalence of the
// represented boolean functions — equivalence checks are O(1) once the
// operands are built, and Not is a single bit flip that allocates nothing:
// a function and its negation share every arena node.
package bdd

import (
	"errors"
	"fmt"
	"math"
)

// Node is a reference to a BDD node inside its Factory, tagged with a
// complement bit (bit 0). The zero value is the constant false; True is
// the complemented edge to the same terminal.
type Node int32

// Terminal nodes. The arena has a single sink (index 0, the empty set);
// True is its complement. A Node n is a terminal exactly when n <= True.
const (
	False Node = 0
	True  Node = 1
)

type nodeData struct {
	level     int32 // variable index; the terminal uses the factory's var count
	low, high Node  // low is never complemented (canonical form)
}

// Binary operations of the shared op cache. With complement edges only two
// kernels are needed: Or is And under De Morgan (a ∨ b = ¬(¬a ∧ ¬b)), which
// lands on the same cache slots as the dual And. 0 marks an empty slot.
const (
	opAnd uint32 = iota + 1
	opXor
)

// opCacheEntry is a slot of the direct-mapped operation cache. Collisions
// overwrite; a miss merely recomputes, so the cache never affects
// correctness. Keys are normalized (operands sorted; complement bits
// stripped where the operation allows), so commuted and negated calls hit
// the same slot.
type opCacheEntry struct {
	op     uint32
	a, b   Node
	result Node
}

// The op cache starts small and doubles as the node arena grows, up to
// the former fixed size. Small policies stay at a few KB instead of the
// old unconditional 256k-entry (≈4 MB) table, which made factories too
// expensive to spawn per worker or per pair.
const (
	opCacheMinBits = 10 // 1k entries
	opCacheMaxBits = 18 // 256k entries ≈ 4 MB
)

// Factory allocates and operates on BDD nodes over a fixed number of
// boolean variables. Variable i branches before variable j whenever i < j.
// A Factory is not safe for concurrent use; spawn one per goroutine
// (they are cheap) or guard with a mutex.
type Factory struct {
	nodes   []nodeData
	numVars int

	// unique is an open-addressed hash table over the node arena
	// (hash-consing). Entries hold node index + 1; 0 is empty.
	unique     []int32
	uniqueMask uint32

	cache     []opCacheEntry
	cacheMask uint32
	iteTmp    map[[3]Node]Node

	// varCache memoizes Var(i): one hash probe per variable lifetime
	// instead of one per literal use. 0 (False) marks an empty slot — a
	// variable node can never be a terminal.
	varCache []Node

	// quantification scratch, reused across Exists calls
	existsMask []bool

	cacheHits, cacheMisses uint64

	// Interrupt state (see SetInterrupt). maxNodes bounds the nodes
	// allocated since the last BeginWork; poll is the cancellation check
	// called every interruptPollInterval operations. Both survive Reset —
	// they are factory configuration, not workload state — and are removed
	// with ClearInterrupt before a factory returns to a shared pool.
	maxNodes  int
	workBase  int
	poll      func() error
	sincePoll int32
}

// ErrNodeBudget is the sentinel wrapped by the Abort a factory panics
// with when a computation exceeds the node budget set via SetInterrupt.
var ErrNodeBudget = errors.New("bdd: node budget exceeded")

// Abort is the panic payload a factory throws when an installed interrupt
// fires: either the node budget was exceeded (Err wraps ErrNodeBudget) or
// the poll function returned an error (Err is that error, typically a
// context's). BDD apply kernels recurse deeply, so abandoning a
// computation by unwinding is the only shape that keeps the hot loops
// free of error returns; callers recover the Abort at task boundaries and
// convert it into a structured error. The factory itself stays
// consistent after an Abort unwind — the arena, unique table, and caches
// only ever hold fully-built entries — so it may be Reset and reused.
type Abort struct{ Err error }

// Error makes an Abort usable directly as an error value after recovery.
func (a Abort) Error() string { return a.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (a Abort) Unwrap() error { return a.Err }

// interruptPollInterval is how many operations (apply-kernel recursion
// steps and node allocations) pass between poll calls. Polling a context
// costs a mutex acquisition, so the interval keeps that off the hot path
// while still bounding cancellation latency to microseconds of BDD work.
const interruptPollInterval = 8192

// SetInterrupt installs a resource guard on the factory: computations
// that allocate more than maxNodes nodes since the last BeginWork panic
// with an Abort wrapping ErrNodeBudget (0 disables the bound), and poll —
// when non-nil — is invoked every few thousand operations, aborting the
// computation with its error when it returns one (the caller's
// cancellation check, typically ctx.Err). The disabled configuration
// costs one predictable branch per allocation and per cache probe.
func (f *Factory) SetInterrupt(maxNodes int, poll func() error) {
	f.maxNodes = maxNodes
	f.poll = poll
	f.workBase = len(f.nodes)
	f.sincePoll = 0
}

// BeginWork marks the start of one budgeted unit of work: the node
// budget set via SetInterrupt counts allocations from this point. Task
// runners call it per task so the budget bounds each comparison, not the
// factory's cumulative lifetime.
func (f *Factory) BeginWork() {
	f.workBase = len(f.nodes)
	f.sincePoll = 0
}

// ClearInterrupt removes the budget and poll installed by SetInterrupt —
// mandatory before handing a factory to a pool or another owner, so a
// stale poll closure (over a finished request's context) cannot abort an
// unrelated computation.
func (f *Factory) ClearInterrupt() {
	f.maxNodes = 0
	f.poll = nil
}

// checkInterrupt runs the installed poll and resets the countdown. It is
// kept out of line so the hot-path guard stays a counter compare.
func (f *Factory) checkInterrupt() {
	f.sincePoll = 0
	if f.poll == nil {
		return
	}
	if err := f.poll(); err != nil {
		panic(Abort{Err: err})
	}
}

// NewFactory creates a factory over numVars variables.
func NewFactory(numVars int) *Factory {
	if numVars < 0 || numVars >= 1<<20 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", numVars))
	}
	// Initial table sizes match the Reset decay caps: real workloads
	// blow well past 1k nodes immediately, and starting small just
	// front-loads a cascade of O(n) rehash/regrow steps (measurably ~15%
	// of a medium diff). A factory costs ~0.5 MB up front and the pool
	// recycles it.
	f := &Factory{
		nodes:      make([]nodeData, 1, resetMaxUniqueSlots/4),
		unique:     make([]int32, resetMaxUniqueSlots),
		uniqueMask: resetMaxUniqueSlots - 1,
		cache:      make([]opCacheEntry, 1<<resetMaxCacheBits),
		cacheMask:  1<<resetMaxCacheBits - 1,
		iteTmp:     make(map[[3]Node]Node),
		varCache:   make([]Node, numVars),
		numVars:    numVars,
	}
	f.nodes[0] = nodeData{level: int32(numVars), low: False, high: False}
	return f
}

// Reset table-decay thresholds. One oversized workload used to inflate a
// recycled factory for good: the unique table and op cache only ever
// grew, so every later Reset paid an O(peak) clear (megabytes of memclr
// per pair for a pooled factory that once saw a 10k-rule policy) and the
// memory stayed pinned. Reset now reallocates tables above these caps
// back to the cap; a workload that genuinely needs more simply regrows.
const (
	resetMaxUniqueSlots = 1 << 17 // 128k slots = 512 KB
	resetMaxCacheBits   = 16      // 64k entries = 1 MB
)

// Reset recycles the factory for a fresh workload over numVars variables:
// all nodes and cached results are discarded, but the arena, hash table,
// op-cache, and quantification-scratch allocations are kept (decayed to
// a bounded size when a previous workload left them oversized), so
// resetting between independent comparisons avoids re-paying the
// allocation cost. Any Node obtained before the Reset is invalid
// afterwards.
func (f *Factory) Reset(numVars int) {
	if numVars < 0 || numVars >= 1<<20 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", numVars))
	}
	f.numVars = numVars
	if cap(f.nodes) > 4*resetMaxUniqueSlots {
		f.nodes = make([]nodeData, 1, resetMaxUniqueSlots)
	} else {
		f.nodes = f.nodes[:1]
	}
	f.nodes[0] = nodeData{level: int32(numVars), low: False, high: False}
	if len(f.unique) > resetMaxUniqueSlots {
		f.unique = make([]int32, resetMaxUniqueSlots)
		f.uniqueMask = resetMaxUniqueSlots - 1
	} else {
		clear(f.unique)
	}
	if len(f.cache) > 1<<resetMaxCacheBits {
		f.cache = make([]opCacheEntry, 1<<resetMaxCacheBits)
		f.cacheMask = 1<<resetMaxCacheBits - 1
	} else {
		clear(f.cache)
	}
	clear(f.iteTmp)
	if cap(f.varCache) >= numVars {
		f.varCache = f.varCache[:numVars]
		clear(f.varCache)
	} else {
		f.varCache = make([]Node, numVars)
	}
	// Keep the scratch buffer's capacity — dropping it would defeat the
	// allocation recycling Reset exists for — but clear its contents.
	if cap(f.existsMask) >= numVars {
		f.existsMask = f.existsMask[:numVars]
		clear(f.existsMask)
	} else {
		f.existsMask = nil
	}
	f.cacheHits, f.cacheMisses = 0, 0
	// The interrupt configuration survives (it belongs to the factory's
	// current owner), but the budget baseline moves to the fresh arena.
	f.workBase = len(f.nodes)
	f.sincePoll = 0
}

// Stats is a snapshot of a factory's allocation and op-cache behavior.
type Stats struct {
	Nodes       int    // live nodes in the arena, including the terminal
	CacheSlots  int    // current op-cache capacity
	UniqueSlots int    // current hash-consing table capacity
	CacheHits   uint64 // op-cache hits since creation or Reset
	CacheMisses uint64 // op-cache misses since creation or Reset
}

// Stats reports the factory's current allocation and cache counters.
func (f *Factory) Stats() Stats {
	return Stats{
		Nodes:       len(f.nodes),
		CacheSlots:  len(f.cache),
		UniqueSlots: len(f.unique),
		CacheHits:   f.cacheHits,
		CacheMisses: f.cacheMisses,
	}
}

// Delta returns the growth of the monotonic counters since an earlier
// snapshot of the same factory (with no intervening Reset): nodes
// allocated and op-cache hits/misses incurred between the two snapshots.
// The capacity fields keep their current values — they are sizes, not
// counters. Per-interval attribution is what observability wants: a
// factory shared across many comparisons (a policy cache, a pooled
// worker factory) must charge each comparison only its own work, never
// the cumulative totals.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		Nodes:       s.Nodes - since.Nodes,
		CacheSlots:  s.CacheSlots,
		UniqueSlots: s.UniqueSlots,
		CacheHits:   s.CacheHits - since.CacheHits,
		CacheMisses: s.CacheMisses - since.CacheMisses,
	}
}

// HitRatio returns the op-cache hit fraction of the snapshot (0 when no
// operations were recorded).
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

func nodeHash(level int32, low, high Node) uint32 {
	h := uint64(uint32(level))*0x9e3779b1 ^ uint64(uint32(low))*0x85ebca77 ^ uint64(uint32(high))*0xc2b2ae3d
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

func (f *Factory) rehashUnique() {
	newSize := uint32(len(f.unique)) * 2
	table := make([]int32, newSize)
	mask := newSize - 1
	for i := 1; i < len(f.nodes); i++ {
		d := f.nodes[i]
		h := nodeHash(d.level, d.low, d.high) & mask
		for table[h] != 0 {
			h = (h + 1) & mask
		}
		table[h] = int32(i) + 1
	}
	f.unique = table
	f.uniqueMask = mask
}

// cacheIndex maps an op-cache key to a slot by the low bits of the mixed
// key after discarding bit 0. Low-bit multiplicative indexing keeps slots
// near-bijective for the sequential arena indices apply kernels generate,
// but under the tagged node encoding operands are indices shifted left by
// the complement bit, so raw bit 0 is parity-locked by the op constant and
// would crowd each operation's keys into half the table; one right shift
// restores the bijective index bits.
func (f *Factory) cacheIndex(op uint32, a, b Node) uint32 {
	h := uint32(a)*0x9e3779b1 ^ uint32(b)*0x85ebca77 ^ op*0x27d4eb2f
	return (h >> 1) & f.cacheMask
}

// cacheLookup must stay small enough for the compiler to inline into the
// apply kernels — the cancellation poll lives in the kernels' recursion
// steps and in mkRaw, never here.
func (f *Factory) cacheLookup(op uint32, a, b Node) (Node, bool) {
	e := &f.cache[f.cacheIndex(op, a, b)]
	if e.op == op && e.a == a && e.b == b {
		f.cacheHits++
		return e.result, true
	}
	f.cacheMisses++
	return 0, false
}

func (f *Factory) cacheStore(op uint32, a, b, result Node) {
	f.cache[f.cacheIndex(op, a, b)] = opCacheEntry{op: op, a: a, b: b, result: result}
}

// growCache doubles the op cache, re-slotting live entries under the new
// mask. Called when the arena outgrows the cache, so the cache tracks the
// working-set size instead of paying the worst case up front.
func (f *Factory) growCache() {
	old := f.cache
	f.cache = make([]opCacheEntry, len(old)*2)
	f.cacheMask = uint32(len(f.cache)) - 1
	for _, e := range old {
		if e.op != 0 {
			f.cacheStore(e.op, e.a, e.b, e.result)
		}
	}
}

// NumVars returns the number of variables the factory was created with.
func (f *Factory) NumVars() int { return f.numVars }

// Size returns the number of live nodes in the arena (including the
// terminal).
func (f *Factory) Size() int { return len(f.nodes) }

// NodeCount returns the number of distinct arena nodes reachable from n,
// excluding the terminal — the conventional "BDD size" metric. With
// complement edges a function and its negation have the same count.
func (f *Factory) NodeCount(n Node) int {
	seen := map[int32]bool{}
	var walk func(Node)
	var count int
	walk = func(m Node) {
		i := int32(m) >> 1
		if i == 0 || seen[i] {
			return
		}
		seen[i] = true
		count++
		walk(f.nodes[i].low)
		walk(f.nodes[i].high)
	}
	walk(n)
	return count
}

// level returns the branching variable of n (numVars for terminals).
func (f *Factory) level(n Node) int32 { return f.nodes[n>>1].level }

// mk returns the canonical node (level, low, high), enforcing both
// reduction (low == high collapses) and the complement-edge canonical
// form: the low edge of a stored node is never complemented. A request
// with a complemented low edge is stored negated and returned through a
// complemented reference.
func (f *Factory) mk(level int32, low, high Node) Node {
	if low == high {
		return low
	}
	if low&1 != 0 {
		return f.mkRaw(level, low^1, high^1) ^ 1
	}
	return f.mkRaw(level, low, high)
}

// mkRaw hash-conses a node whose low edge is already regular.
func (f *Factory) mkRaw(level int32, low, high Node) Node {
	h := nodeHash(level, low, high) & f.uniqueMask
	for {
		slot := f.unique[h]
		if slot == 0 {
			break
		}
		d := f.nodes[slot-1]
		if d.level == level && d.low == low && d.high == high {
			return Node(slot-1) << 1
		}
		h = (h + 1) & f.uniqueMask
	}
	i := int32(len(f.nodes))
	f.nodes = append(f.nodes, nodeData{level: level, low: low, high: high})
	f.unique[h] = i + 1
	// Budget check after the insert, so the structure is consistent when
	// the Abort unwinds; one compare on the disabled (maxNodes == 0) path.
	if f.maxNodes != 0 && len(f.nodes)-f.workBase > f.maxNodes {
		panic(Abort{Err: fmt.Errorf("%w: %d nodes allocated (budget %d)",
			ErrNodeBudget, len(f.nodes)-f.workBase, f.maxNodes)})
	}
	if f.sincePoll++; f.sincePoll >= interruptPollInterval {
		f.checkInterrupt()
	}
	if uint32(len(f.nodes))*4 > uint32(len(f.unique))*3 {
		f.rehashUnique()
	}
	if len(f.nodes) > 2*len(f.cache) && len(f.cache) < 1<<opCacheMaxBits {
		f.growCache()
	}
	return Node(i) << 1
}

// Var returns the BDD for "variable i is true".
func (f *Factory) Var(i int) Node {
	f.checkVar(i)
	if v := f.varCache[i]; v != 0 {
		return v
	}
	v := f.mk(int32(i), False, True)
	f.varCache[i] = v
	return v
}

// NVar returns the BDD for "variable i is false".
func (f *Factory) NVar(i int) Node {
	return f.Var(i) ^ 1
}

func (f *Factory) checkVar(i int) {
	if i < 0 || i >= f.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, f.numVars))
	}
}

// Lit returns Var(i) if val, else NVar(i).
func (f *Factory) Lit(i int, val bool) Node {
	if val {
		return f.Var(i)
	}
	return f.NVar(i)
}

// Not returns the negation of n: with complement edges, a single bit flip.
// It allocates no nodes and touches no caches.
func (f *Factory) Not(n Node) Node { return n ^ 1 }

// And returns the conjunction of a and b through the specialized And
// kernel: op-specific terminal short-circuits (including the
// complement-edge rule a ∧ ¬a = ∅) and a commutative cache key (operands
// sorted), so And(a,b) and And(b,a) share one slot.
func (f *Factory) And(a, b Node) Node {
	// Cancellation poll. And is the shared recursion step of every binary
	// kernel (Or and the derived operations route here), it is never
	// inlined, and fully-memoized recursions still pass through it — so
	// this counter is a reliable heartbeat that costs an increment and a
	// never-taken branch when no interrupt is installed.
	if f.sincePoll++; f.sincePoll >= interruptPollInterval {
		f.checkInterrupt()
	}
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	case a^1 == b:
		return False
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := f.cacheLookup(opAnd, a, b); ok {
		return r
	}
	da, db := f.nodes[a>>1], f.nodes[b>>1]
	level := da.level
	if db.level < level {
		level = db.level
	}
	al, ah := a, a
	if da.level == level {
		ca := a & 1
		al, ah = da.low^ca, da.high^ca
	}
	bl, bh := b, b
	if db.level == level {
		cb := b & 1
		bl, bh = db.low^cb, db.high^cb
	}
	r := f.mk(level, f.And(al, bl), f.And(ah, bh))
	f.cacheStore(opAnd, a, b, r)
	return r
}

// AndCofactors returns (a ∧ b, a ∧ ¬b) in one product traversal. This is
// the split every first-match walk performs per clause — the taken guard
// and the fall-through guard — and the two conjunctions recurse over the
// same (a, b) product DAG, so computing them together visits each
// subproblem once instead of twice. Both halves are looked up from and
// stored into the regular And cache under And's own commutative keys, so
// the fused kernel and And stay fully interchangeable: either can serve
// the other's warm entries.
func (f *Factory) AndCofactors(a, b Node) (ab, anb Node) {
	// Cancellation poll — see And.
	if f.sincePoll++; f.sincePoll >= interruptPollInterval {
		f.checkInterrupt()
	}
	switch {
	case a == False:
		return False, False
	case b == True:
		return a, False
	case b == False:
		return False, a
	case a == True:
		return b, b ^ 1
	case a == b:
		return a, False
	case a^1 == b:
		return False, a
	}
	sa1, sb1 := a, b
	if sa1 > sb1 {
		sa1, sb1 = sb1, sa1
	}
	sa2, sb2 := a, b^1
	if sa2 > sb2 {
		sa2, sb2 = sb2, sa2
	}
	r1, ok1 := f.cacheLookup(opAnd, sa1, sb1)
	r2, ok2 := f.cacheLookup(opAnd, sa2, sb2)
	if ok1 && ok2 {
		return r1, r2
	}
	// One half warm: finish the other through the plain kernel rather
	// than re-walking the product for both.
	if ok1 {
		return r1, f.And(a, b^1)
	}
	if ok2 {
		return f.And(a, b), r2
	}
	da, db := f.nodes[a>>1], f.nodes[b>>1]
	level := da.level
	if db.level < level {
		level = db.level
	}
	al, ah := a, a
	if da.level == level {
		ca := a & 1
		al, ah = da.low^ca, da.high^ca
	}
	bl, bh := b, b
	if db.level == level {
		cb := b & 1
		bl, bh = db.low^cb, db.high^cb
	}
	abl, anbl := f.AndCofactors(al, bl)
	abh, anbh := f.AndCofactors(ah, bh)
	ab = f.mk(level, abl, abh)
	anb = f.mk(level, anbl, anbh)
	f.cacheStore(opAnd, sa1, sb1, ab)
	f.cacheStore(opAnd, sa2, sb2, anb)
	return ab, anb
}

// Or returns the disjunction of a and b. After its own terminal
// short-circuits it is the And kernel under De Morgan — with complement
// edges the negations are free, and the dual And shares the cache slots.
func (f *Factory) Or(a, b Node) Node {
	switch {
	case a == True || b == True:
		return True
	case a == False:
		return b
	case b == False:
		return a
	case a == b:
		return a
	case a^1 == b:
		return True
	}
	return f.And(a^1, b^1) ^ 1
}

// AndLit returns Lit(i, val) ∧ n. When the literal branches above n's
// root — the common case in field encoders, which conjoin literals from
// the least significant level upward — the result is a single fresh node
// and the call bypasses the op cache entirely: no lookup, no store, no
// recursion. Other shapes fall back to the And kernel.
func (f *Factory) AndLit(i int, val bool, n Node) Node {
	if n == False {
		return False
	}
	lv := int32(i)
	if n == True || lv < f.level(n) {
		f.checkVar(i)
		if val {
			return f.mk(lv, False, n)
		}
		return f.mk(lv, n, False)
	}
	return f.And(f.Lit(i, val), n)
}

// OrLit returns Lit(i, val) ∨ n, the dual of AndLit with the same
// above-the-root fast path.
func (f *Factory) OrLit(i int, val bool, n Node) Node {
	if n == True {
		return True
	}
	lv := int32(i)
	if n == False || lv < f.level(n) {
		f.checkVar(i)
		if val {
			return f.mk(lv, n, True)
		}
		return f.mk(lv, True, n)
	}
	return f.Or(f.Lit(i, val), n)
}

// Xor returns the exclusive-or of a and b — the "symmetric difference" of
// the two sets, which is exactly the space of behavioral differences when
// a and b encode two components' accept sets. Xor is invariant under
// operand complement up to output complement (¬a ⊕ b = ¬(a ⊕ b)), so the
// cache key strips both complement bits and sorts: all four sign
// combinations of a commuted pair hit one slot.
func (f *Factory) Xor(a, b Node) Node {
	// Cancellation poll — see And.
	if f.sincePoll++; f.sincePoll >= interruptPollInterval {
		f.checkInterrupt()
	}
	switch {
	case a == b:
		return False
	case a^1 == b:
		return True
	case a == False:
		return b
	case b == False:
		return a
	case a == True:
		return b ^ 1
	case b == True:
		return a ^ 1
	}
	c := (a ^ b) & 1
	a &^= 1
	b &^= 1
	if a > b {
		a, b = b, a
	}
	if r, ok := f.cacheLookup(opXor, a, b); ok {
		return r ^ c
	}
	da, db := f.nodes[a>>1], f.nodes[b>>1]
	level := da.level
	if db.level < level {
		level = db.level
	}
	al, ah := a, a
	if da.level == level {
		al, ah = da.low, da.high
	}
	bl, bh := b, b
	if db.level == level {
		bl, bh = db.low, db.high
	}
	r := f.mk(level, f.Xor(al, bl), f.Xor(ah, bh))
	f.cacheStore(opXor, a, b, r)
	return r ^ c
}

// Diff returns a ∧ ¬b, the set difference.
func (f *Factory) Diff(a, b Node) Node { return f.And(a, b^1) }

// Imp returns ¬a ∨ b, logical implication.
func (f *Factory) Imp(a, b Node) Node { return f.Or(a^1, b) }

// Equiv returns the biconditional of a and b as a BDD.
func (f *Factory) Equiv(a, b Node) Node { return f.Xor(a, b) ^ 1 }

// Implies reports whether a ⊆ b as sets (a → b is a tautology).
func (f *Factory) Implies(a, b Node) bool { return f.And(a, b^1) == False }

// Ite returns if-then-else(c, t, e). Operand cases that reduce to a binary
// operation are routed through the specialized kernels; only the
// irreducible three-operand shape recurses here, under the standard
// complement normalization (condition and then-edge regular).
func (f *Factory) Ite(c, t, e Node) Node {
	// Cancellation poll — see And. The irreducible three-operand recursion
	// memoizes in iteTmp, not the op cache, so it needs its own heartbeat.
	if f.sincePoll++; f.sincePoll >= interruptPollInterval {
		f.checkInterrupt()
	}
	if c == True {
		return t
	}
	if c == False {
		return e
	}
	if t == e {
		return t
	}
	// Branches that repeat (or negate) the condition collapse to
	// constants under that branch.
	if t == c {
		t = True
	} else if t == c^1 {
		t = False
	}
	if e == c {
		e = False
	} else if e == c^1 {
		e = True
	}
	switch {
	case t == True && e == False:
		return c
	case t == False && e == True:
		return c ^ 1
	case t == True:
		return f.Or(c, e)
	case t == False:
		return f.And(c^1, e)
	case e == False:
		return f.And(c, t)
	case e == True:
		return f.Or(c^1, t)
	case t == e^1:
		return f.Xor(c, e)
	}
	// Normalize: Ite(¬c, t, e) = Ite(c, e, t); Ite(c, ¬t, ¬e) = ¬Ite(c, t, e).
	if c&1 != 0 {
		c ^= 1
		t, e = e, t
	}
	var neg Node
	if t&1 != 0 {
		t ^= 1
		e ^= 1
		neg = 1
	}
	key := [3]Node{c, t, e}
	if r, ok := f.iteTmp[key]; ok {
		return r ^ neg
	}
	dc, dt, de := f.nodes[c>>1], f.nodes[t>>1], f.nodes[e>>1]
	level := dc.level
	if dt.level < level {
		level = dt.level
	}
	if de.level < level {
		level = de.level
	}
	cl, ch := c, c
	if dc.level == level {
		cl, ch = dc.low, dc.high // c is regular here
	}
	tl, th := t, t
	if dt.level == level {
		tl, th = dt.low, dt.high // t is regular here
	}
	el, eh := e, e
	if de.level == level {
		ce := e & 1
		el, eh = de.low^ce, de.high^ce
	}
	r := f.mk(level, f.Ite(cl, tl, el), f.Ite(ch, th, eh))
	f.iteTmp[key] = r
	return r ^ neg
}

// AndN conjoins its arguments by balanced-tree reduction, which keeps the
// intermediate BDDs of wide conjunctions small compared to a left fold
// (each round halves the operand count instead of accumulating one giant
// running product). AndN() is True.
func (f *Factory) AndN(ns ...Node) Node {
	return f.reduceN(ns, False, f.And)
}

// OrN disjoins its arguments by balanced-tree reduction; OrN() is False.
func (f *Factory) OrN(ns ...Node) Node {
	return f.reduceN(ns, True, f.Or)
}

// reduceN pairwise-combines work until one node remains, short-circuiting
// on the absorbing element of the operation.
func (f *Factory) reduceN(ns []Node, absorbing Node, op func(a, b Node) Node) Node {
	switch len(ns) {
	case 0:
		// The identity element is the negation of the absorbing one.
		return absorbing ^ 1
	case 1:
		return ns[0]
	}
	work := make([]Node, len(ns))
	copy(work, ns)
	for len(work) > 1 {
		k := 0
		for i := 0; i < len(work); i += 2 {
			if i+1 == len(work) {
				work[k] = work[i]
			} else {
				r := op(work[i], work[i+1])
				if r == absorbing {
					return absorbing
				}
				work[k] = r
			}
			k++
		}
		work = work[:k]
	}
	return work[0]
}

// Exists existentially quantifies the given variables out of n.
func (f *Factory) Exists(n Node, vars []int) Node {
	if len(vars) == 0 || n <= True {
		return n
	}
	if len(f.existsMask) < f.numVars {
		f.existsMask = make([]bool, f.numVars)
	}
	for _, v := range vars {
		f.checkVar(v)
		f.existsMask[v] = true
	}
	memo := make(map[Node]Node)
	r := f.exists(n, memo)
	for _, v := range vars {
		f.existsMask[v] = false
	}
	return r
}

func (f *Factory) exists(n Node, memo map[Node]Node) Node {
	if n <= True {
		return n
	}
	// Quantification does not commute with complement (∃x.¬g ≠ ¬∃x.g),
	// so the memo keys on the full tagged reference and the complement
	// bit is pushed down onto the cofactors.
	if r, ok := memo[n]; ok {
		return r
	}
	d := f.nodes[n>>1]
	c := n & 1
	lo := f.exists(d.low^c, memo)
	hi := f.exists(d.high^c, memo)
	var r Node
	if f.existsMask[d.level] {
		r = f.Or(lo, hi)
	} else {
		r = f.mk(d.level, lo, hi)
	}
	memo[n] = r
	return r
}

// Restrict fixes variable v to val inside n.
func (f *Factory) Restrict(n Node, v int, val bool) Node {
	f.checkVar(v)
	lv := int32(v)
	memo := make(map[Node]Node)
	var walk func(Node) Node
	walk = func(m Node) Node {
		if m <= True {
			return m
		}
		d := f.nodes[m>>1]
		if d.level > lv {
			return m
		}
		if r, ok := memo[m]; ok {
			return r
		}
		c := m & 1
		lo, hi := d.low^c, d.high^c
		var r Node
		if d.level == lv {
			if val {
				r = hi
			} else {
				r = lo
			}
		} else {
			r = f.mk(d.level, walk(lo), walk(hi))
		}
		memo[m] = r
		return r
	}
	return walk(n)
}

// Assignment is a partial truth assignment: for each variable index,
// 0 means false, 1 means true, -1 means don't-care.
type Assignment []int8

// AnySat returns one satisfying partial assignment of n, or nil if n is
// unsatisfiable. Unmentioned variables are -1 (don't care). The descent
// prefers the low branch, so the witness is the lexicographically least
// satisfying input by variable index (don't-cares read as false).
func (f *Factory) AnySat(n Node) Assignment {
	if n == False {
		return nil
	}
	a := make(Assignment, f.numVars)
	for i := range a {
		a[i] = -1
	}
	for n != True {
		d := f.nodes[n>>1]
		c := n & 1
		if d.low^c != False {
			a[d.level] = 0
			n = d.low ^ c
		} else {
			a[d.level] = 1
			n = d.high ^ c
		}
	}
	return a
}

// RandSat returns one satisfying total assignment of n, drawn by a random
// descent: at every node with two live branches the coin picks one, and
// variables the path does not constrain are coined too. AnySat always
// returns the same (mostly-zero) witness; RandSat lets samplers draw
// diverse concrete inputs from one difference region. The coin supplies
// the randomness, so callers control determinism (seeded PRNG in tests,
// crypto source never needed). Returns nil if n is unsatisfiable.
func (f *Factory) RandSat(n Node, coin func() bool) Assignment {
	if n == False {
		return nil
	}
	a := make(Assignment, f.numVars)
	level := 0
	for {
		nodeLevel := f.numVars
		if n != True {
			nodeLevel = int(f.nodes[n>>1].level)
		}
		// Variables skipped by the path are unconstrained: coin them.
		for ; level < nodeLevel; level++ {
			if coin() {
				a[level] = 1
			} else {
				a[level] = 0
			}
		}
		if n == True {
			return a
		}
		d := f.nodes[n>>1]
		c := n & 1
		lo, hi := d.low^c, d.high^c
		var bit int8
		switch {
		case lo == False:
			bit = 1
		case hi == False:
			bit = 0
		default:
			// Both cofactors satisfiable (non-False ⇒ satisfiable in an
			// ROBDD): free choice.
			if coin() {
				bit = 1
			}
		}
		a[level] = bit
		level++
		if bit == 1 {
			n = hi
		} else {
			n = lo
		}
	}
}

// Eval evaluates n under a total assignment (don't-cares treated as false).
func (f *Factory) Eval(n Node, a Assignment) bool {
	for n > True {
		d := f.nodes[n>>1]
		c := n & 1
		if int(d.level) < len(a) && a[d.level] == 1 {
			n = d.high ^ c
		} else {
			n = d.low ^ c
		}
	}
	return n == True
}

// Cube returns the conjunction of literals described by the assignment
// (don't-care entries are skipped).
func (f *Factory) Cube(a Assignment) Node {
	r := True
	for l := min(len(a), f.numVars) - 1; l >= 0; l-- {
		switch a[l] {
		case 0:
			r = f.mk(int32(l), r, False)
		case 1:
			r = f.mk(int32(l), False, r)
		}
	}
	return r
}

// SatCount returns the number of total assignments satisfying n,
// as a float64 (it can exceed 2^63 for wide factories).
func (f *Factory) SatCount(n Node) float64 {
	memo := map[Node]float64{}
	var walk func(Node) float64
	walk = func(m Node) float64 {
		if m == False {
			return 0
		}
		if m == True {
			return 1
		}
		if c, ok := memo[m]; ok {
			return c
		}
		d := f.nodes[m>>1]
		cb := m & 1
		lo, hi := d.low^cb, d.high^cb
		cl := walk(lo) * math.Exp2(float64(f.level(lo)-d.level-1))
		ch := walk(hi) * math.Exp2(float64(f.level(hi)-d.level-1))
		c := cl + ch
		memo[m] = c
		return c
	}
	return walk(n) * math.Exp2(float64(f.level(n)))
}

// Support returns the sorted list of variables n depends on.
func (f *Factory) Support(n Node) []int {
	seen := map[int32]bool{}
	inSupport := make([]bool, f.numVars)
	var walk func(Node)
	walk = func(m Node) {
		i := int32(m) >> 1
		if i == 0 || seen[i] {
			return
		}
		seen[i] = true
		inSupport[f.nodes[i].level] = true
		walk(f.nodes[i].low)
		walk(f.nodes[i].high)
	}
	walk(n)
	var vars []int
	for i, b := range inSupport {
		if b {
			vars = append(vars, i)
		}
	}
	return vars
}

// WalkCubes calls fn for each cube (path to True) of n, passing a partial
// assignment valid only for the duration of the call. It stops early if fn
// returns false. The number of cubes can be exponential; callers should
// bound their own iteration.
func (f *Factory) WalkCubes(n Node, fn func(Assignment) bool) {
	a := make(Assignment, f.numVars)
	for i := range a {
		a[i] = -1
	}
	var walk func(Node) bool
	walk = func(m Node) bool {
		if m == False {
			return true
		}
		if m == True {
			return fn(a)
		}
		d := f.nodes[m>>1]
		c := m & 1
		v := d.level
		a[v] = 0
		if !walk(d.low ^ c) {
			return false
		}
		a[v] = 1
		if !walk(d.high ^ c) {
			return false
		}
		a[v] = -1
		return true
	}
	walk(n)
}

// Level exposes the variable index at the root of n (numVars for
// terminals).
func (f *Factory) Level(n Node) int { return int(f.level(n)) }

// Low and High expose node structure for traversals: the effective
// cofactors of n, with the complement bit pushed down (terminals
// self-loop).
func (f *Factory) Low(n Node) Node  { return f.nodes[n>>1].low ^ (n & 1) }
func (f *Factory) High(n Node) Node { return f.nodes[n>>1].high ^ (n & 1) }
