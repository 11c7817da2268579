// Report wire format: a finished pair report serialized to JSON for the
// persistent cache, and the respan operation that retargets a cached (or
// representative) report at a different device pair.
//
// Everything a report renders is plain exported data — prefix ranges,
// community terms, example routes/packets, text spans, structural
// differences — so encoding/json round-trips it exactly, provided its
// text is valid UTF-8 (EncodeReport refuses the rest). The only pieces
// deliberately dropped are Report.Stats (execution metadata, excluded
// from deterministic output by design) and the full parsed Configs:
// rendering reads only Hostname (the router names) and the span Files,
// so stub configs carrying those two fields reproduce the exact bytes.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/structdiff"
)

// payloadVersion guards the JSON shape; bump on any field change so old
// cache entries self-invalidate. Version 2 marks entries written since
// EncodeReport refuses text that is not valid UTF-8; version 1 entries
// may hold such text already replaced with U+FFFD.
const payloadVersion = 2

type reportPayload struct {
	Version      int
	Host1, Host2 string
	File1, File2 string

	RouteMapDiffs []core.RouteMapDiff
	ACLDiffs      []core.ACLPairDiff
	Structural    []structdiff.Difference
	Unmatched1    []string
	Unmatched2    []string
}

// errUnfaithful: the report's JSON would not decode to the same text.
var errUnfaithful = errors.New("report text is not valid UTF-8")

// invalidUTF8 is how encoding/json writes a byte that is not valid
// UTF-8. A valid U+FFFD is written raw, so the escape marks text that
// would come back changed.
var invalidUTF8 = []byte(`\ufffd`)

// payloadOf is rep's wire payload. It shares rep's difference slices.
func payloadOf(rep *core.Report) reportPayload {
	p := reportPayload{
		Version:       payloadVersion,
		RouteMapDiffs: rep.RouteMapDiffs,
		ACLDiffs:      rep.ACLDiffs,
		Structural:    rep.Structural,
		Unmatched1:    rep.UnmatchedACLs1,
		Unmatched2:    rep.UnmatchedACLs2,
	}
	if rep.Config1 != nil {
		p.Host1, p.File1 = rep.Config1.Hostname, rep.Config1.File
	}
	if rep.Config2 != nil {
		p.Host2, p.File2 = rep.Config2.Hostname, rep.Config2.File
	}
	return p
}

// report is the report p describes: stub configs carrying only
// Hostname and File — exactly what rendering consumes — and no Stats.
func (p reportPayload) report() *core.Report {
	return &core.Report{
		Config1:        &ir.Config{Hostname: p.Host1, File: p.File1},
		Config2:        &ir.Config{Hostname: p.Host2, File: p.File2},
		RouteMapDiffs:  p.RouteMapDiffs,
		ACLDiffs:       p.ACLDiffs,
		Structural:     p.Structural,
		UnmatchedACLs1: p.Unmatched1,
		UnmatchedACLs2: p.Unmatched2,
	}
}

// EncodeReport serializes rep for the persistent cache. It fails when
// rep's text is not valid UTF-8: encoding/json would replace the bad
// bytes, and the decoded report would render differently. Text that
// literally contains the characters \ufffd fails too; that costs only a
// cache miss.
func EncodeReport(rep *core.Report) ([]byte, error) {
	data, err := json.Marshal(payloadOf(rep))
	if err != nil {
		return nil, err
	}
	if bytes.Contains(data, invalidUTF8) {
		return nil, errUnfaithful
	}
	return data, nil
}

// DecodeReport reconstructs a report from EncodeReport output. The
// configs are stubs carrying only Hostname and File. A version mismatch
// is an error (the caller treats it as a cache miss), and so is a payload
// holding the \ufffd escape, which EncodeReport never writes.
func DecodeReport(data []byte) (*core.Report, error) {
	if bytes.Contains(data, invalidUTF8) {
		return nil, errUnfaithful
	}
	var p reportPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if p.Version != payloadVersion {
		return nil, fmt.Errorf("cache payload version %d, want %d", p.Version, payloadVersion)
	}
	return p.report(), nil
}

// RespanReport returns a copy of rep retargeted at the pair (c1, c2):
// the configs are swapped for the new endpoints and every side-1/side-2
// text span's File is rewritten to the corresponding endpoint's file.
// Line numbers and text are untouched — equal device hashes guarantee
// the member's configuration has the same lines at the same positions.
// rep itself is never mutated (it may be a shared representative).
func RespanReport(rep *core.Report, c1, c2 *ir.Config) *core.Report {
	out := &core.Report{
		Config1:        c1,
		Config2:        c2,
		RouteMapDiffs:  append([]core.RouteMapDiff(nil), rep.RouteMapDiffs...),
		ACLDiffs:       append([]core.ACLPairDiff(nil), rep.ACLDiffs...),
		Structural:     append([]structdiff.Difference(nil), rep.Structural...),
		UnmatchedACLs1: rep.UnmatchedACLs1,
		UnmatchedACLs2: rep.UnmatchedACLs2,
	}
	for i := range out.RouteMapDiffs {
		d := &out.RouteMapDiffs[i]
		d.Text1 = respan(d.Text1, c1.File)
		d.Text2 = respan(d.Text2, c2.File)
	}
	for i := range out.ACLDiffs {
		d := &out.ACLDiffs[i]
		d.Text1 = respan(d.Text1, c1.File)
		d.Text2 = respan(d.Text2, c2.File)
	}
	for i := range out.Structural {
		d := &out.Structural[i]
		d.Span1 = respan(d.Span1, c1.File)
		d.Span2 = respan(d.Span2, c2.File)
	}
	return out
}

// respan rewrites a span's file, preserving zero-ness: a span that never
// carried a file (and would render as no location) stays that way.
func respan(s ir.TextSpan, file string) ir.TextSpan {
	if s.File == "" {
		return s
	}
	s.File = file
	return s
}
