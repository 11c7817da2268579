package campiontest_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/campion"
	"repro/internal/core"
	"repro/internal/difftest"
)

var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// TestGoldenCorpus diffs every checked-in configuration pair under
// golden/ and compares the rendered report byte-for-byte against the
// pair's expected.txt (refresh with -update). It then runs the
// differential oracle harness over the same pair, so witness soundness
// is asserted for every diff region the golden reports contain.
func TestGoldenCorpus(t *testing.T) {
	entries, err := os.ReadDir("golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("golden corpus has %d pairs, want at least 10", len(entries))
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "repair" {
			// golden/repair holds the repair corpus (buggy pair + expected
			// patch), exercised by TestRepairGoldenCorpus instead.
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			dir := filepath.Join("golden", e.Name())
			cfg1, err := campion.LoadFile(filepath.Join(dir, "a.cfg"))
			if err != nil {
				t.Fatal(err)
			}
			cfg2, err := campion.LoadFile(filepath.Join(dir, "b.cfg"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := campion.Diff(cfg1, cfg2, campion.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := campion.Write(&buf, rep); err != nil {
				t.Fatal(err)
			}

			goldenPath := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/campiontest/ -update` to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report changed; rerun with -update if intended\n--- got ---\n%s\n--- want ---\n%s",
					buf.Bytes(), want)
			}

			// Execution modes are pure optimizations: intra-pair
			// striping and the cross-call policy cache must both render
			// the exact bytes the default configuration produced.
			for name, opts := range map[string]campion.Options{
				"workers":     {Workers: 4},
				"policycache": {Workers: 1, PolicyCache: core.NewPolicyCache()},
			} {
				mrep, err := campion.Diff(cfg1, cfg2, opts)
				if err != nil {
					t.Fatalf("mode %s: %v", name, err)
				}
				var mbuf bytes.Buffer
				if err := campion.Write(&mbuf, mrep); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mbuf.Bytes(), buf.Bytes()) {
					t.Errorf("mode %s diverges from default rendering\n--- mode ---\n%s\n--- default ---\n%s",
						name, mbuf.Bytes(), buf.Bytes())
				}
			}

			// Witness soundness for every region reported on this pair:
			// the oracle harness re-derives the route-map and ACL diffs
			// and confirms each region with concrete counterexamples.
			drep := difftest.CheckConfigs(cfg1, cfg2, difftest.Options{
				Samples: 24, Seed: uint64(len(e.Name())),
			})
			for _, v := range drep.Violations {
				t.Errorf("oracle harness: %s", v)
			}
		})
	}
}

// TestGoldenCorpusMirror: for every golden pair (a, b), the reverse
// report of one joint pass renders — as tables and as JSON —
// byte-identical to an independent Diff(b, a), under the default
// options and every execution mode of TestGoldenCorpus.
func TestGoldenCorpusMirror(t *testing.T) {
	entries, err := os.ReadDir("golden")
	if err != nil {
		t.Fatal(err)
	}
	render := func(rep *campion.Report) []byte {
		var buf bytes.Buffer
		if err := campion.Write(&buf, rep); err != nil {
			t.Fatal(err)
		}
		js, err := campion.JSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), js...)
	}
	pairs := 0
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "repair" {
			continue
		}
		pairs++
		dir := filepath.Join("golden", e.Name())
		cfg1, err := campion.LoadFile(filepath.Join(dir, "a.cfg"))
		if err != nil {
			t.Fatal(err)
		}
		cfg2, err := campion.LoadFile(filepath.Join(dir, "b.cfg"))
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range map[string]campion.Options{
			"default":     {},
			"workers":     {Workers: 4},
			"policycache": {Workers: 1, PolicyCache: core.NewPolicyCache()},
		} {
			fwd, rev, err := core.DiffBoth(context.Background(), cfg1, cfg2, opts)
			if err != nil {
				t.Fatalf("%s mode %s: %v", e.Name(), name, err)
			}
			if rev == nil {
				t.Fatalf("%s mode %s: joint pass derived no reverse report", e.Name(), name)
			}
			wantFwd, err := campion.Diff(cfg1, cfg2, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantRev, err := campion.Diff(cfg2, cfg1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := render(fwd), render(wantFwd); !bytes.Equal(got, want) {
				t.Errorf("%s mode %s: forward report diverges\n--- joint ---\n%s\n--- lone ---\n%s", e.Name(), name, got, want)
			}
			if got, want := render(rev), render(wantRev); !bytes.Equal(got, want) {
				t.Errorf("%s mode %s: reverse report diverges\n--- joint ---\n%s\n--- lone ---\n%s", e.Name(), name, got, want)
			}
		}
	}
	if pairs < 10 {
		t.Fatalf("golden corpus has %d pairs, want at least 10", pairs)
	}
}
