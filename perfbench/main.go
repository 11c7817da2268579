// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads, each with a single client calling the same
// public functions the campion CLI and daemon call, in-process and with
// no sockets:
//
//   - paper-pairs: the ten golden-corpus pairs, in a fresh seeded order
//     each cycle;
//   - policy-scale: §5.4-sized pairs (1,200-rule ACL plus 300-clause
//     route map per side);
//   - fleet-daemon: snapshot pushes and report reads against a
//     200-device daemon session, as one seeded script replayed whole on
//     fresh daemons, so the daemon's end state does not depend on the
//     program's speed.
//
// BENCHMARK.json declares paper-pairs and fleet-daemon. policy-scale runs
// by hand: on the 2-CPU shared host the benchmark was tuned on, its
// medians over ten seeds spread by a quarter (IQR/median up to 24.6%),
// the whole regression bound, because an op lasts about a second and the
// host's speed swings by that much over tens of seconds.
//
// Every op is refereed. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with -trace 0, per-layer metrics with -trace 1, and every
// workload prints the same set of each kind. Run it through
// run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload paper-pairs --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository checkout the golden corpus is read from
	out     string // directory the traced run writes its span file to
	size    sizes
}

// sizes are the workload dimensions. The benchmark runs defaultSizes;
// the package's tests shrink them.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	policyPairs int // distinct policy-scale pairs, cycled
	aclRules    int
	rmClauses   int
	shapes      []shape // aclgen pairs every traced run times once

	fleetDevices  int
	fleetWarm     int // untimed warm-up writes at the head of the script
	fleetWrites   int // measured writes per replay of the script
	readsPerWrite int
	sampleEvery   int // about one read in sampleEvery is re-derived cold
}

func defaultSizes() sizes {
	return sizes{
		setupReps:   3,
		policyPairs: 3, aclRules: 1200, rmClauses: 300,
		shapes:       []shape{{"shape.acl1k_s", 1000}, {"shape.acl10k_s", 10000}},
		fleetDevices: 200, fleetWarm: 4, fleetWrites: 100, readsPerWrite: 8,
		sampleEvery: 16,
	}
}

// shape is one §5.4 shape row: the metric and the aclgen rules per side.
type shape struct {
	metric string
	rules  int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"paper-pairs":  runPaperPairs,
	"policy-scale": runPolicyScale,
	"fleet-daemon": runFleetDaemon,
}

func main() {
	var (
		name    string
		seconds float64
		trace   int
		cfg     config
	)
	flag.StringVar(&name, "workload", "", "paper-pairs, policy-scale or fleet-daemon")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&seconds, "seconds", 45, "least measured time (fleet-daemon replays its whole seeded script until it has passed)")
	flag.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics, 1 runs the traced per-layer variant")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout holding the golden corpus")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file")
	flag.Parse()

	run, ok := workloads[name]
	if !ok || (trace != 0 && trace != 1) || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-pairs|policy-scale|fleet-daemon --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.size = defaultSizes()

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted, failed int) *result {
	return &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}
