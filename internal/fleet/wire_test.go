package fleet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/present"
)

func render(t *testing.T, rep *core.Report) (string, string) {
	t.Helper()
	var text bytes.Buffer
	if err := present.Format(&text, rep); err != nil {
		t.Fatalf("format: %v", err)
	}
	return text.String(), string(present.AppendJSON(nil, rep, 0))
}

// TestReportWireRoundTrip: a report decoded from its wire form renders
// byte-identically to the original — text and JSON — even though the
// decoded report carries only stub configs. Text that is not valid
// UTF-8 would not come back intact, so it is refused.
func TestReportWireRoundTrip(t *testing.T) {
	rep := testReport(t)
	// A valid U+FFFD is written raw and round-trips like any other text.
	for _, host := range []string{rep.Config1.Hostname, "alpha\uFFFD"} {
		rep.Config1.Hostname = host
		wantText, wantJSON := render(t, rep)

		data, err := EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReport(data)
		if err != nil {
			t.Fatal(err)
		}
		gotText, gotJSON := render(t, got)
		if gotText != wantText {
			t.Fatalf("text rendering diverged:\n--- want ---\n%s\n--- got ---\n%s", wantText, gotText)
		}
		if gotJSON != wantJSON {
			t.Fatalf("JSON rendering diverged:\n--- want ---\n%s\n--- got ---\n%s", wantJSON, gotJSON)
		}
	}
	rep.Config1.Hostname = "alpha\xe9"
	if _, err := EncodeReport(rep); err == nil {
		t.Fatal("encoded a report whose text is not valid UTF-8")
	}
}

// TestRespanReport: retargeting rewrites hostnames and span files — and
// nothing else — and matches a from-scratch diff of the new pair.
func TestRespanReport(t *testing.T) {
	rep := testReport(t)
	// The "member" pair: same contents, different hostnames and files.
	m1 := parseCisco(t, "member1.cfg", strings.Replace(hashBaseCfg, "hostname alpha", "hostname m-one", 1))
	m2text := strings.Replace(
		strings.Replace(hashBaseCfg, "hostname alpha", "hostname m-two", 1),
		"local-preference 120", "local-preference 200", 1)
	m2 := parseCisco(t, "member2.cfg", m2text)

	want, err := core.Diff(m1, m2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantText, wantJSON := render(t, want)
	gotText, gotJSON := render(t, RespanReport(rep, m1, m2))
	if gotText != wantText {
		t.Fatalf("respanned text != naive member diff:\n--- want ---\n%s\n--- got ---\n%s", wantText, gotText)
	}
	if gotJSON != wantJSON {
		t.Fatalf("respanned JSON != naive member diff:\n--- want ---\n%s\n--- got ---\n%s", wantJSON, gotJSON)
	}

	// The original report is untouched (it may be a shared representative).
	if rep.Config1.Hostname != "alpha" {
		t.Fatal("RespanReport mutated its input")
	}
	for _, d := range rep.RouteMapDiffs {
		if d.Text1.File != "" && d.Text1.File != "a.cfg" {
			t.Fatal("RespanReport mutated input spans")
		}
	}
}

// TestRespanZeroSpan: spans with no location stay location-free (a file
// rewrite must not invent "file:0" locations).
func TestRespanZeroSpan(t *testing.T) {
	rep := &core.Report{
		Config1: &ir.Config{Hostname: "a", File: "a.cfg"},
		Config2: &ir.Config{Hostname: "b", File: "b.cfg"},
		RouteMapDiffs: []core.RouteMapDiff{{
			Text1: ir.TextSpan{},
			Text2: ir.TextSpan{File: "b.cfg", StartLine: 3, EndLine: 3, Lines: []string{"x"}},
		}},
	}
	c1 := &ir.Config{Hostname: "m1", File: "m1.cfg"}
	c2 := &ir.Config{Hostname: "m2", File: "m2.cfg"}
	out := RespanReport(rep, c1, c2)
	if loc := out.RouteMapDiffs[0].Text1.Location(); loc != "" {
		t.Fatalf("zero span gained a location: %q", loc)
	}
	if loc := out.RouteMapDiffs[0].Text2.Location(); loc != "m2.cfg:3" {
		t.Fatalf("span not retargeted: %q", loc)
	}
}
