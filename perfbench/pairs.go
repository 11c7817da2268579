package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/fleet"
	"repro/internal/headerloc"
	"repro/internal/policygen"
	"repro/internal/semdiff"
	"repro/internal/structdiff"
	"repro/internal/symbolic"
)

// goldenPairs are the golden-corpus pairs paper-pairs audits: Figure 1
// buggy and fixed, the Table 6-8 testnets, and one generated ACL and
// route-map pair. Pinned by name so a corpus addition does not silently
// change the workload.
var goldenPairs = []string{
	"dc-gateway", "dc-replacement", "dc-tor1", "dc-tor2",
	"fig1-fixed", "fig1-prefixlist-bug", "genacl-seed5", "genpol-seed11",
	"university-border", "university-core",
}

// pairInput is one configuration pair of a pair workload, plus what the
// measured loop learned about its outputs.
type pairInput struct {
	name         string
	file1, file2 string // names the parsers record in text spans
	text1, text2 string
	want         []byte // expected report; nil when the referee derives it afterwards

	ops, wrong int    // ops run on this pair, and how many were wrong
	first      []byte // first report seen, when want is nil
}

func newPairInput(name, file1, text1, file2, text2 string) *pairInput {
	return &pairInput{name: name, file1: file1, text1: text1, file2: file2, text2: text2}
}

// check referees one op's output, outside the op's timed interval.
func (in *pairInput) check(out []byte, err error) {
	in.ops++
	switch {
	case err != nil:
		in.wrong++
	case in.want != nil:
		if !bytes.Equal(out, in.want) {
			in.wrong++
		}
	case in.first == nil:
		in.first = append([]byte(nil), out...)
	case !bytes.Equal(out, in.first):
		in.wrong++
	}
}

// auditOp is one op: parse both sides, campion.Diff, campion.Write — what
// `campion a.cfg b.cfg` does after reading its files. With a non-nil
// tracer each call into a layer gets a span under the op's root span.
func auditOp(in *pairInput, buf *bytes.Buffer, tr *tracer, op int) (c1, c2 *campion.Config, rep *campion.Report, err error) {
	root := tr.begin(op, 0, "op")
	defer tr.end(root)
	sp := tr.begin(op, root, "parse")
	c1, err = campion.Parse(in.file1, in.text1)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin(op, root, "parse")
	c2, err = campion.Parse(in.file2, in.text2)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin(op, root, "core.diff")
	rep, err = campion.Diff(c1, c2, campion.Options{})
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	buf.Reset()
	sp = tr.begin(op, root, "present")
	err = campion.Write(buf, rep)
	tr.end(sp)
	return c1, c2, rep, err
}

func loadGolden(root string) ([]*pairInput, error) {
	var inputs []*pairInput
	for _, name := range goldenPairs {
		dir := filepath.Join(root, "internal", "campiontest", "golden", name)
		var data [3][]byte
		for i, f := range []string{"a.cfg", "b.cfg", "expected.txt"} {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				return nil, err
			}
			data[i] = b
		}
		in := newPairInput(name, name+"/a.cfg", string(data[0]), name+"/b.cfg", string(data[1]))
		in.want = data[2]
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// genPolicyPairs builds the policy-scale pairs: each side carries an
// aclgen ACL (10 differences) and a policygen route map (5 differences).
// The generator seeds are fixed, so every run audits the same pairs and
// the workload's cost does not depend on which seeds a run draws; the
// run's seed orders them.
func genPolicyPairs(sz sizes) []*pairInput {
	inputs := make([]*pairInput, sz.policyPairs)
	for i := range inputs {
		g := uint64(i + 1)
		acl := aclgen.Generate(aclgen.Params{Seed: g, Rules: sz.aclRules, Differences: 10})
		pol := policygen.Generate(policygen.Params{Seed: g, Clauses: sz.rmClauses, Differences: 5})
		inputs[i] = newPairInput(fmt.Sprintf("policy-%d", g),
			"cisco.cfg", pol.CiscoText+"!\n"+acl.CiscoText,
			"juniper.cfg", pol.JuniperText+acl.JuniperText)
	}
	return inputs
}

// pairRun is the closed loop shared by paper-pairs and policy-scale.
type pairRun struct {
	cfg    config
	inputs []*pairInput
	rng    *rand.Rand // draws each cycle's order
}

// cycle returns the next cycle's order: a seeded permutation of the
// inputs, fresh each cycle so no fixed sequence of pairs favours a seed.
func (p *pairRun) cycle() []int { return p.rng.Perm(len(p.inputs)) }

// setupPairs loads the inputs and warms up by auditing the first warm
// pairs of a seeded order.
func setupPairs(cfg config, load func() ([]*pairInput, error), warm int) (*pairRun, error) {
	inputs, err := load()
	if err != nil {
		return nil, err
	}
	p := &pairRun{cfg: cfg, inputs: inputs, rng: rand.New(rand.NewSource(cfg.seed))}
	var buf bytes.Buffer
	order := p.cycle()
	for _, i := range order[:min(warm, len(order))] {
		if _, _, _, err := auditOp(inputs[i], &buf, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", inputs[i].name, err)
		}
	}
	return p, nil
}

// minOps is the fewest ops an untraced run takes its median over. A
// policy-scale op takes about a second and this 2-CPU host's speed swings
// by a quarter over tens of seconds, so medians of 24 ops moved by nearly
// that much from run to run; 36 ops span more of the swings.
const minOps = 36

// measure audits whole cycles until cfg.seconds have passed, so every
// pair is audited equally often, and until there are minOps untraced ops
// (a traced run needs only enough for a median with minBeyond above it).
// In a traced run (tr != nil) untraced and traced cycles alternate, and
// every traced op is followed by the stage replay and a replay of the
// fleet layer's device hash.
func (p *pairRun) measure(tr *tracer, lt *layerTally) loopStats {
	var ls loopStats
	var buf bytes.Buffer
	op, need := 0, minOps
	if tr != nil {
		need = 2 * minBeyond
	}
	clk := startClock()
	for cycle := 0; ; cycle++ {
		traced := tr != nil && cycle%2 == 1
		for _, i := range p.cycle() {
			in := p.inputs[i]
			op++
			var t *tracer
			var a0 uint64
			if traced {
				t = tr
			} else if tr != nil {
				a0 = allocBytes()
			}
			start := time.Now()
			c1, c2, rep, err := auditOp(in, &buf, t, op)
			d := ms(time.Since(start))
			if !traced {
				ls.opMS = append(ls.opMS, d)
				if tr != nil {
					lt.allocs += allocBytes() - a0
					lt.untraced++
				}
			}
			in.check(buf.Bytes(), err)
			if traced {
				lt.tracedMS = append(lt.tracedMS, d)
				if err == nil {
					lt.counts.add(replayStages(tr, op, c1, c2))
					replayHash(tr, op, c1, c2)
					for _, st := range rep.Stats {
						lt.stripes += st.Stripes
					}
				}
			}
		}
		if len(ls.opMS) >= need && time.Since(clk.start) >= p.cfg.seconds && (tr == nil || cycle%2 == 1) {
			break
		}
	}
	clk.stop(&ls)
	return ls
}

// tally totals the ops run and the ops the referee found wrong.
func (p *pairRun) tally() (attempted, failed int) {
	for _, in := range p.inputs {
		attempted += in.ops
		failed += in.wrong
	}
	return attempted, failed
}

func runPaperPairs(cfg config) (*result, error) {
	load := func() ([]*pairInput, error) { return loadGolden(cfg.root) }
	return runPairs(cfg, "paper-pairs", load, len(goldenPairs))
}

func runPolicyScale(cfg config) (*result, error) {
	load := func() ([]*pairInput, error) { return genPolicyPairs(cfg.size), nil }
	return runPairs(cfg, "policy-scale", load, 1)
}

// runPairs is one run of a pair workload: repeated set-up, the measured
// loop, the referee and the metrics. policy-scale has no expected reports
// on disk, so the concrete oracle referees it.
func runPairs(cfg config, workload string, load func() ([]*pairInput, error), warm int) (*result, error) {
	p, setupS, err := repeatSetup(cfg.size.setupReps, func() (*pairRun, error) {
		return setupPairs(cfg, load, warm)
	})
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var lt layerTally
	if cfg.trace {
		tr = newTracer()
	}
	ls := p.measure(tr, &lt)
	if workload == "policy-scale" {
		refereeOracle(p.inputs)
	}
	res := newResult(p.tally())
	if !cfg.trace {
		return res, endToEnd(res, setupS, ls)
	}
	return res, finishTraced(cfg, workload, res, tr, &lt, ls.opMS)
}

// refereeOracle checks each policy-scale pair once with the concrete
// oracle (difftest.CheckConfigs), after the measured loop. The loop
// already held every op's report to the pair's first one; when the
// oracle rejects a pair, every op on it fails.
func refereeOracle(inputs []*pairInput) {
	for i, in := range inputs {
		if in.ops == 0 {
			continue
		}
		c1, err1 := campion.Parse(in.file1, in.text1)
		c2, err2 := campion.Parse(in.file2, in.text2)
		if err1 != nil || err2 != nil {
			in.wrong = in.ops
			continue
		}
		if oracle := difftest.CheckConfigs(c1, c2, difftest.Options{Seed: uint64(i + 1)}); !oracle.OK() {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", in.name, oracle.Summary())
			in.wrong = in.ops
		}
	}
}

// replayCounts are the work counts of stage replays. The replay runs on
// fresh factories, one goroutine, so the counts repeat exactly.
type replayCounts struct {
	paths, regions, nodes int
	hits, misses          uint64
}

func (c *replayCounts) add(o replayCounts) {
	c.paths += o.paths
	c.regions += o.regions
	c.nodes += o.nodes
	c.hits += o.hits
	c.misses += o.misses
}

// addFactory adds one replay factory's node and op-cache counts.
func (c *replayCounts) addFactory(st bdd.Stats) {
	c.nodes += st.Nodes
	c.hits += st.CacheHits
	c.misses += st.CacheMisses
}

// replayStages re-runs the stages inside campion.Diff sequentially on the
// op's parsed configurations, through the same public functions core
// calls, one span per call: encodings, path enumeration, the semantic
// diff, header localization and the structural checks.
func replayStages(tr *tracer, op int, c1, c2 *campion.Config) replayCounts {
	root := tr.begin(op, 0, "replay")
	defer tr.end(root)
	var rc replayCounts
	replayRouteMaps(tr, op, root, c1, c2, &rc)
	replayACLs(tr, op, root, c1, c2, &rc)
	for _, check := range []func(c1, c2 *campion.Config) []structdiff.Difference{
		structdiff.DiffStaticRoutes, structdiff.DiffConnectedRoutes,
		structdiff.DiffBGPConfig, structdiff.DiffBGPNeighbors,
		structdiff.DiffOSPF, structdiff.DiffAdminDistances,
	} {
		sp := tr.begin(op, root, "structdiff")
		check(c1, c2)
		tr.end(sp)
	}
	return rc
}

// routeMapTasks lists the distinct chain comparisons core makes for a
// pair: matched BGP and redistribution policies, or same-named route maps
// when there is no BGP context.
func routeMapTasks(c1, c2 *campion.Config) [][2][]string {
	var tasks [][2][]string
	seen := map[string]bool{}
	add := func(n1, n2 []string) {
		k := strings.Join(n1, "\x00") + "\x01" + strings.Join(n2, "\x00")
		if !seen[k] {
			seen[k] = true
			tasks = append(tasks, [2][]string{n1, n2})
		}
	}
	pairs := core.MatchPolicies(c1, c2)
	for _, pp := range pairs {
		add(pp.Names1, pp.Names2)
	}
	if len(pairs) == 0 {
		var names []string
		for n := range c1.RouteMaps {
			if _, ok := c2.RouteMaps[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			add([]string{n}, []string{n})
		}
	}
	return tasks
}

func replayRouteMaps(tr *tracer, op, parent int, c1, c2 *campion.Config, rc *replayCounts) {
	tasks := routeMapTasks(c1, c2)
	if len(tasks) == 0 {
		return
	}
	sp := tr.begin(op, parent, "symbolic.encode")
	enc := symbolic.NewRouteEncoding(c1, c2)
	tr.end(sp)
	sp = tr.begin(op, parent, "headerloc.build")
	loc := headerloc.NewRouteLocalizer(enc, c1, c2)
	tr.end(sp)
	// Each chain is compiled once per side, as core's per-worker policy
	// cache does.
	compiled := map[string][]symbolic.RoutePath{}
	paths := func(side string, cfg *campion.Config, names []string) []symbolic.RoutePath {
		k := side + strings.Join(names, "\x00")
		if p, ok := compiled[k]; ok {
			return p
		}
		sp := tr.begin(op, parent, "symbolic.paths")
		p, _ := enc.EnumeratePaths(cfg, core.ResolveChain(cfg, names))
		tr.end(sp)
		rc.paths += len(p)
		compiled[k] = p
		return p
	}
	for _, t := range tasks {
		p1, p2 := paths("1", c1, t[0]), paths("2", c2, t[1])
		sp := tr.begin(op, parent, "semdiff")
		diffs := semdiff.DiffRouteMapPaths(enc, p1, p2)
		tr.end(sp)
		rc.regions += len(diffs)
		for _, d := range diffs {
			sp := tr.begin(op, parent, "headerloc.localize")
			loc.Localize(d.Inputs)
			tr.end(sp)
		}
	}
	rc.addFactory(enc.F.Stats())
}

func replayACLs(tr *tracer, op, parent int, c1, c2 *campion.Config, rc *replayCounts) {
	var shared []string
	for n := range c1.ACLs {
		if _, ok := c2.ACLs[n]; ok {
			shared = append(shared, n)
		}
	}
	sort.Strings(shared)
	for _, n := range shared {
		acl1, acl2 := c1.ACLs[n], c2.ACLs[n]
		sp := tr.begin(op, parent, "symbolic.encode")
		enc := symbolic.NewPacketEncoding()
		tr.end(sp)
		sp = tr.begin(op, parent, "symbolic.paths")
		rc.paths += len(enc.EnumerateACLPaths(acl1)) + len(enc.EnumerateACLPaths(acl2))
		tr.end(sp)
		sp = tr.begin(op, parent, "semdiff")
		diffs := semdiff.DiffACLs(enc, acl1, acl2)
		tr.end(sp)
		rc.regions += len(diffs)
		if len(diffs) > 0 {
			sp = tr.begin(op, parent, "headerloc.build")
			loc := headerloc.NewACLLocalizer(enc, acl1, acl2)
			tr.end(sp)
			for _, d := range diffs {
				sp := tr.begin(op, parent, "headerloc.localize")
				loc.Localize(d.Inputs)
				tr.end(sp)
			}
		}
		rc.addFactory(enc.F.Stats())
	}
}

// replayHash re-runs the fleet layer's device hash on the op's two
// configurations, with one Hasher as one hashing worker of a fleet audit
// would: what clustering these devices would cost.
func replayHash(tr *tracer, op int, cfgs ...*campion.Config) {
	sp := tr.begin(op, 0, "fleet.hash")
	h := fleet.NewHasher()
	for _, c := range cfgs {
		h.DeviceHash(c)
	}
	tr.end(sp)
}

// shapeRows times one aclgen pair per size once, end to end (parse,
// diff, render), for the §5.4 shape check: sub-second at 1k rules, tens
// of seconds at 10k in the paper.
func shapeRows(res *result, seed int64, shapes []shape) (attempted, failed int) {
	var buf bytes.Buffer
	for _, sh := range shapes {
		acl := aclgen.Generate(aclgen.Params{Seed: uint64(seed), Rules: sh.rules, Differences: 10})
		in := newPairInput(sh.metric, "cisco.cfg", acl.CiscoText, "juniper.cfg", acl.JuniperText)
		attempted++
		start := time.Now()
		_, _, rep, err := auditOp(in, &buf, nil, 0)
		secs := time.Since(start).Seconds()
		if err != nil || len(rep.ACLDiffs) == 0 {
			failed++
			continue
		}
		res.set(sh.metric, secs, "s")
	}
	return attempted, failed
}
