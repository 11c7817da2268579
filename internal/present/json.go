package present

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/ddnf"
	"repro/internal/ir"
	"repro/internal/structdiff"
)

// AppendJSON appends the report's JSON form to dst and returns the
// extended slice. The bytes are those encoding/json's MarshalIndent
// writes, with indent "  " and HTML escaping on, for an object with the
// members
//
//	router1, router2, routeMapDiffs, aclDiffs, structuralDiffs,
//	aclsOnlyOnRouter1, aclsOnlyOnRouter2
//
// in that order, where a route-map difference has
//
//	kind, neighbor, policy1, policy2, includedPrefixes,
//	excludedPrefixes, exact, exampleCommunities, communityTerms,
//	communityTermsComplete, action1, action2, text1, text2,
//	location1, location2
//
// an ACL difference has
//
//	name, srcPackets, dstPackets, example, moreFields, action1,
//	action2, text1, text2
//
// and a structural difference has
//
//	component, key, field, value1, value2, location1, location2
//
// An empty includedPrefixes, srcPackets or dstPackets is null. Any
// other empty list, a false communityTermsComplete, a zero moreFields
// and an empty location are left out.
//
// Every line after the first is indented depth levels more, so the
// report can be appended as a member value depth levels deep inside an
// enclosing indented document.
func AppendJSON(dst []byte, rep *core.Report, depth int) []byte {
	e := jsonAppender{b: dst, level: depth}
	n1, n2 := routerNames(rep)
	e.open('{')
	e.str("router1", n1)
	e.str("router2", n2)
	if len(rep.RouteMapDiffs) > 0 {
		e.key("routeMapDiffs")
		e.open('[')
		for i := range rep.RouteMapDiffs {
			e.routeMapDiff(&rep.RouteMapDiffs[i])
		}
		e.close(']')
	}
	if len(rep.ACLDiffs) > 0 {
		e.key("aclDiffs")
		e.open('[')
		for i := range rep.ACLDiffs {
			e.aclDiff(&rep.ACLDiffs[i])
		}
		e.close(']')
	}
	if len(rep.Structural) > 0 {
		e.key("structuralDiffs")
		e.open('[')
		for i := range rep.Structural {
			e.structDiff(&rep.Structural[i])
		}
		e.close(']')
	}
	e.strs("aclsOnlyOnRouter1", rep.UnmatchedACLs1)
	e.strs("aclsOnlyOnRouter2", rep.UnmatchedACLs2)
	e.close('}')
	return e.b
}

// AppendJSONString appends s to dst as a JSON string, escaped as
// encoding/json escapes it with HTML escaping on.
func AppendJSONString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// jsonAppender writes indented JSON into b. level is the nesting depth
// of the container open at the write position; first reports that the
// container has no member yet.
type jsonAppender struct {
	b     []byte
	level int
	first bool
	// scratch holds a community term while it is escaped.
	scratch []byte
}

func (e *jsonAppender) open(c byte) {
	e.b = append(e.b, c)
	e.level++
	e.first = true
}

// close ends the open container. Only non-empty containers are written,
// so its closing bracket always goes on a line of its own.
func (e *jsonAppender) close(c byte) {
	e.level--
	e.newline()
	e.b = append(e.b, c)
	e.first = false
}

// item starts the next member of the open container on a new line.
func (e *jsonAppender) item() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

func (e *jsonAppender) newline() {
	e.b = append(e.b, '\n')
	for i := 0; i < e.level; i++ {
		e.b = append(e.b, "  "...)
	}
}

// key starts an object member; k is a literal name that needs no
// escaping.
func (e *jsonAppender) key(k string) {
	e.item()
	e.b = append(append(append(e.b, '"'), k...), `": `...)
}

func (e *jsonAppender) str(k, v string) {
	e.key(k)
	e.b = AppendJSONString(e.b, v)
}

func (e *jsonAppender) bool(k string, v bool) {
	e.key(k)
	e.b = strconv.AppendBool(e.b, v)
}

// strs writes a string list, left out when empty.
func (e *jsonAppender) strs(k string, ss []string) {
	if len(ss) == 0 {
		return
	}
	e.key(k)
	e.open('[')
	for _, s := range ss {
		e.item()
		e.b = AppendJSONString(e.b, s)
	}
	e.close(']')
}

// terms writes the String forms of a list of flat terms, null when
// empty. Prefix ranges and flat terms are built from digits, '.', '/',
// ':', '-', spaces and U+2212, none of which JSON escapes, so they are
// appended between quotes as they are.
func (e *jsonAppender) terms(k string, ts []ddnf.FlatTerm) {
	e.key(k)
	if len(ts) == 0 {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for _, t := range ts {
		e.item()
		e.b = append(t.AppendTo(append(e.b, '"')), '"')
	}
	e.close(']')
}

// text writes the span's lines joined by newlines, as TextSpan.Text
// renders them. The lines are escaped one by one: a newline is ASCII and
// never part of a multi-byte sequence, so this matches escaping the
// joined text.
func (e *jsonAppender) text(k string, s ir.TextSpan) {
	e.key(k)
	e.b = append(e.b, '"')
	for i, line := range s.Lines {
		if i > 0 {
			e.b = append(e.b, `\n`...)
		}
		e.b = appendEscaped(e.b, line)
	}
	e.b = append(e.b, '"')
}

// location writes TextSpan.Location's "file:start-end", left out when
// the span has neither file nor start line.
func (e *jsonAppender) location(k string, s ir.TextSpan) {
	if s.File == "" && s.StartLine == 0 {
		return
	}
	e.key(k)
	e.b = append(appendEscaped(append(e.b, '"'), s.File), ':')
	e.b = strconv.AppendInt(e.b, int64(s.StartLine), 10)
	if s.StartLine != s.EndLine {
		e.b = strconv.AppendInt(append(e.b, '-'), int64(s.EndLine), 10)
	}
	e.b = append(e.b, '"')
}

func (e *jsonAppender) routeMapDiff(d *core.RouteMapDiff) {
	loc := &d.Localization
	e.item()
	e.open('{')
	e.str("kind", d.Pair.Kind)
	e.str("neighbor", d.Pair.Neighbor)
	e.str("policy1", d.Pair.Name1)
	e.str("policy2", d.Pair.Name2)
	// Prefix ranges need no escaping; see terms.
	e.key("includedPrefixes")
	if len(loc.Terms) == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for _, t := range loc.Terms {
			e.item()
			e.b = append(t.Include.AppendTo(append(e.b, '"')), '"')
		}
		e.close(']')
	}
	excluded := 0
	for _, t := range loc.Terms {
		excluded += len(t.Exclude)
	}
	if excluded > 0 {
		e.key("excludedPrefixes")
		e.open('[')
		for _, t := range loc.Terms {
			for _, x := range t.Exclude {
				e.item()
				e.b = append(x.AppendTo(append(e.b, '"')), '"')
			}
		}
		e.close(']')
	}
	e.bool("exact", loc.Exact)
	e.strs("exampleCommunities", loc.ExampleCommunities)
	if len(loc.CommunityTerms) > 0 {
		e.key("communityTerms")
		e.open('[')
		for _, ct := range loc.CommunityTerms {
			e.item()
			e.scratch = ct.AppendTo(e.scratch[:0])
			e.b = append(appendEscaped(append(e.b, '"'), e.scratch), '"')
		}
		e.close(']')
	}
	if loc.CommunityComplete {
		e.bool("communityTermsComplete", true)
	}
	e.str("action1", d.Action1)
	e.str("action2", d.Action2)
	e.text("text1", d.Text1)
	e.text("text2", d.Text2)
	e.location("location1", d.Text1)
	e.location("location2", d.Text2)
	e.close('}')
}

func (e *jsonAppender) aclDiff(d *core.ACLPairDiff) {
	loc := &d.Localization
	e.item()
	e.open('{')
	e.str("name", d.Name1)
	e.terms("srcPackets", loc.SrcTerms)
	e.terms("dstPackets", loc.DstTerms)
	e.strs("example", loc.ExampleFields)
	if loc.More != 0 {
		e.key("moreFields")
		e.b = strconv.AppendInt(e.b, int64(loc.More), 10)
	}
	e.str("action1", d.Action1)
	e.str("action2", d.Action2)
	e.text("text1", d.Text1)
	e.text("text2", d.Text2)
	e.close('}')
}

func (e *jsonAppender) structDiff(d *structdiff.Difference) {
	e.item()
	e.open('{')
	e.str("component", d.Component)
	e.str("key", d.Key)
	e.str("field", d.Field)
	e.str("value1", d.Value1)
	e.str("value2", d.Value2)
	e.location("location1", d.Span1)
	e.location("location2", d.Span2)
	e.close('}')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends src's JSON string escaping, without quotes,
// byte for byte as encoding/json writes it with HTML escaping on:
// '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t by name; other
// bytes below 0x20 and '<', '>', '&' as \u00XX; each byte of invalid
// UTF-8 as \ufffd; U+2028 and U+2029 as \u2028 and \u2029. Everything
// else is copied as is.
func appendEscaped[T string | []byte](dst []byte, src T) []byte {
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		n := len(src) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		r, size := utf8.DecodeRuneInString(string(src[i : i+n]))
		if r == utf8.RuneError && size == 1 {
			dst = append(append(dst, src[start:i]...), `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(append(dst, src[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, src[start:]...)
}
