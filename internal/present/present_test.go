package present

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/netaddr"
	"repro/internal/structdiff"
)

const ciscoSide = `hostname cisco_router
ip prefix-list NETS permit 10.9.0.0/16 le 32
ip prefix-list NETS permit 10.100.0.0/16 le 32
ip community-list standard COMM permit 10:10
ip community-list standard COMM permit 10:11
route-map POL deny 10
 match ip address NETS
route-map POL deny 20
 match community COMM
route-map POL permit 30
 set local-preference 30
ip route 10.1.1.2 255.255.255.254 10.2.2.2
router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map POL out
`

const juniperSide = `system { host-name juniper_router; }
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    community COMM members [ 10:10 10:11 ];
    policy-statement POL {
        term rule1 { from prefix-list NETS; then reject; }
        term rule2 { from community COMM; then reject; }
        term rule3 { then { local-preference 30; accept; } }
    }
}
routing-options { autonomous-system 65001; }
protocols {
    bgp {
        group peers {
            type external;
            peer-as 65002;
            neighbor 10.0.12.2 { export POL; }
        }
    }
}
`

func report(t *testing.T) *core.Report {
	t.Helper()
	c, err := cisco.Parse("cisco.cfg", ciscoSide)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("juniper.cfg", juniperSide)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Diff(c, j, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFormatTable2Content checks that the rendered report carries the
// content of the paper's Table 2: included/excluded prefixes, the policy
// names, the actions, and the original text of both sides.
func TestFormatTable2Content(t *testing.T) {
	rep := report(t)
	var buf bytes.Buffer
	if err := Format(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cisco_router",
		"juniper_router",
		"10.9.0.0/16 : 16-32",
		"10.9.0.0/16 : 16-16",
		"10.100.0.0/16 : 16-32",
		"0.0.0.0/0 : 0-32",
		"Included Prefixes",
		"Excluded Prefixes",
		"Community",
		"REJECT",
		"SET LOCAL PREF 30",
		"route-map POL deny 10",
		"match ip address NETS",
		"rule3",
		"10.1.1.2/31", // Table 4 static route
		"next-hop 10.2.2.2",
		"None",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q", want)
		}
	}
}

func TestFormatNoDifferences(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", ciscoSide)
	c2, _ := cisco.Parse("b.cfg", ciscoSide)
	rep, _ := core.Diff(c1, c2, core.Options{})
	var buf bytes.Buffer
	if err := Format(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No differences found") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestToJSON(t *testing.T) {
	rep := report(t)
	data := AppendJSON(nil, rep, 0)
	var parsed map[string]interface{}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed["router1"] != "cisco_router" || parsed["router2"] != "juniper_router" {
		t.Errorf("routers = %v %v", parsed["router1"], parsed["router2"])
	}
	rmd, ok := parsed["routeMapDiffs"].([]interface{})
	if !ok || len(rmd) != 2 {
		t.Fatalf("routeMapDiffs = %v", parsed["routeMapDiffs"])
	}
	first := rmd[0].(map[string]interface{})
	if first["policy1"] != "POL" || first["action1"] != "REJECT" {
		t.Errorf("first diff = %v", first)
	}
	if first["exact"] != true {
		t.Error("localization should be exact")
	}
	if _, ok := parsed["structuralDiffs"]; !ok {
		t.Error("structural diffs missing")
	}
}

func TestSummary(t *testing.T) {
	rep := report(t)
	var buf bytes.Buffer
	Summary(&buf, rep)
	out := buf.String()
	if !strings.Contains(out, "route-policy (bgp-export)") || !strings.Contains(out, "2") {
		t.Errorf("summary = %q", out)
	}
	if !strings.Contains(out, "static-route") {
		t.Errorf("summary missing static-route: %q", out)
	}
}

func TestClipAndTitle(t *testing.T) {
	if clip("short", 10) != "short" {
		t.Error("clip short")
	}
	if got := clip("aaaaaaaaaaaaaaaa", 5); len(got) > 7 { // ellipsis is multibyte
		t.Errorf("clip long = %q", got)
	}
	if titleCase("presence") != "Presence" || titleCase("") != "" {
		t.Error("titleCase")
	}
}

const gwCisco = `hostname gw-cisco
ip access-list extended VM_FILTER_1
 2299 deny ipv4 9.140.0.0 0.0.1.255 any
 2300 permit tcp any 10.60.0.0 0.0.255.255 eq 80 443
`

const gwJuniper = `system { host-name gw-juniper; }
firewall {
    family inet {
        filter VM_FILTER_1 {
            term web {
                from {
                    protocol tcp;
                    destination-address { 10.60.0.0/16; }
                    destination-port [ 80 443 ];
                }
                then accept;
            }
            term final { then discard; }
        }
    }
}
`

func TestFormatACLDiffsAndJSON(t *testing.T) {
	c, err := cisco.Parse("c.cfg", gwCisco)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("j.cfg", gwJuniper)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Diff(c, j, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ACLDiffs) == 0 {
		t.Fatal("expected ACL diffs")
	}
	var buf bytes.Buffer
	if err := Format(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ACL VM_FILTER_1", "Src Packets", "9.140.0.0", "2299 deny ipv4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(AppendJSON(nil, rep, 0), &parsed); err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed["aclDiffs"]; !ok {
		t.Error("JSON missing aclDiffs")
	}
}

func TestFormatExhaustiveCommunitiesAndUnmatchedACLs(t *testing.T) {
	c, _ := cisco.Parse("c.cfg", ciscoSide+`
ip access-list extended ONLY_C
 permit ip any any
`)
	j, _ := juniper.Parse("j.cfg", juniperSide)
	rep, err := core.Diff(c, j, core.Options{ExhaustiveCommunities: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Format(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Communities (all)") {
		t.Error("exhaustive community row missing")
	}
	if !strings.Contains(out, "ACL ONLY_C present only on") {
		t.Error("unmatched ACL section missing")
	}
	data := AppendJSON(nil, rep, 0)
	if !strings.Contains(string(data), "communityTerms") {
		t.Error("JSON missing communityTerms")
	}
	if !strings.Contains(string(data), "aclsOnlyOnRouter1") {
		t.Error("JSON missing unmatched ACLs")
	}
}

// jsonReport, its three difference structs and view are the report's
// wire form as encoding/json marshals it by reflection, the encoding
// AppendJSON replaced. They stay here as its reference.
type jsonReport struct {
	Router1       string           `json:"router1"`
	Router2       string           `json:"router2"`
	RouteMapDiffs []jsonRouteDiff  `json:"routeMapDiffs,omitempty"`
	ACLDiffs      []jsonACLDiff    `json:"aclDiffs,omitempty"`
	Structural    []jsonStructDiff `json:"structuralDiffs,omitempty"`
	UnmatchedACL1 []string         `json:"aclsOnlyOnRouter1,omitempty"`
	UnmatchedACL2 []string         `json:"aclsOnlyOnRouter2,omitempty"`
}

type jsonRouteDiff struct {
	Kind             string   `json:"kind"`
	Neighbor         string   `json:"neighbor"`
	Policy1          string   `json:"policy1"`
	Policy2          string   `json:"policy2"`
	IncludedPrefixes []string `json:"includedPrefixes"`
	ExcludedPrefixes []string `json:"excludedPrefixes,omitempty"`
	Exact            bool     `json:"exact"`
	Community        []string `json:"exampleCommunities,omitempty"`
	CommunityTerms   []string `json:"communityTerms,omitempty"`
	CommunityTermsOK bool     `json:"communityTermsComplete,omitempty"`
	Action1          string   `json:"action1"`
	Action2          string   `json:"action2"`
	Text1            string   `json:"text1"`
	Text2            string   `json:"text2"`
	Location1        string   `json:"location1,omitempty"`
	Location2        string   `json:"location2,omitempty"`
}

type jsonACLDiff struct {
	Name    string   `json:"name"`
	Src     []string `json:"srcPackets"`
	Dst     []string `json:"dstPackets"`
	Example []string `json:"example,omitempty"`
	More    int      `json:"moreFields,omitempty"`
	Action1 string   `json:"action1"`
	Action2 string   `json:"action2"`
	Text1   string   `json:"text1"`
	Text2   string   `json:"text2"`
}

type jsonStructDiff struct {
	Component string `json:"component"`
	Key       string `json:"key"`
	Field     string `json:"field"`
	Value1    string `json:"value1"`
	Value2    string `json:"value2"`
	Location1 string `json:"location1,omitempty"`
	Location2 string `json:"location2,omitempty"`
}

func view(rep *core.Report) *jsonReport {
	n1, n2 := routerNames(rep)
	out := &jsonReport{
		Router1:       n1,
		Router2:       n2,
		UnmatchedACL1: rep.UnmatchedACLs1,
		UnmatchedACL2: rep.UnmatchedACLs2,
		// Empty and nil encode alike here: all three are omitempty.
		RouteMapDiffs: make([]jsonRouteDiff, 0, len(rep.RouteMapDiffs)),
		ACLDiffs:      make([]jsonACLDiff, 0, len(rep.ACLDiffs)),
		Structural:    make([]jsonStructDiff, 0, len(rep.Structural)),
	}
	for _, d := range rep.RouteMapDiffs {
		var commTerms []string
		for _, ct := range d.Localization.CommunityTerms {
			commTerms = append(commTerms, ct.String())
		}
		out.RouteMapDiffs = append(out.RouteMapDiffs, jsonRouteDiff{
			Kind:             d.Pair.Kind,
			Neighbor:         d.Pair.Neighbor,
			Policy1:          d.Pair.Name1,
			Policy2:          d.Pair.Name2,
			IncludedPrefixes: includes(d.Localization.Terms),
			ExcludedPrefixes: excludes(d.Localization.Terms),
			Exact:            d.Localization.Exact,
			Community:        d.Localization.ExampleCommunities,
			CommunityTerms:   commTerms,
			CommunityTermsOK: d.Localization.CommunityComplete,
			Action1:          d.Action1,
			Action2:          d.Action2,
			Text1:            d.Text1.Text(),
			Text2:            d.Text2.Text(),
			Location1:        d.Text1.Location(),
			Location2:        d.Text2.Location(),
		})
	}
	for _, d := range rep.ACLDiffs {
		var src, dst []string
		for _, t := range d.Localization.SrcTerms {
			src = append(src, t.String())
		}
		for _, t := range d.Localization.DstTerms {
			dst = append(dst, t.String())
		}
		out.ACLDiffs = append(out.ACLDiffs, jsonACLDiff{
			Name:    d.Name1,
			Src:     src,
			Dst:     dst,
			Example: d.Localization.ExampleFields,
			More:    d.Localization.More,
			Action1: d.Action1,
			Action2: d.Action2,
			Text1:   d.Text1.Text(),
			Text2:   d.Text2.Text(),
		})
	}
	for _, d := range rep.Structural {
		out.Structural = append(out.Structural, jsonStructDiff{
			Component: d.Component,
			Key:       d.Key,
			Field:     d.Field,
			Value1:    d.Value1,
			Value2:    d.Value2,
			Location1: d.Span1.Location(),
			Location2: d.Span2.Location(),
		})
	}
	return out
}

// referenceJSON is json.MarshalIndent of the reflection view, with
// json.Indent supplying a prefix of depth indents for depths above 0.
func referenceJSON(t *testing.T, rep *core.Report, depth int) []byte {
	t.Helper()
	data, err := json.MarshalIndent(view(rep), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if depth == 0 {
		return data
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, strings.Repeat("  ", depth), "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendJSONMatchesReflect pins AppendJSON byte for byte to the
// reflection encoding at depths 0 to 2: over the golden corpus in both
// orientations, with and without exhaustive communities; over
// hand-built reports that reach every null and left-out member; and over
// names and text that JSON must escape.
func TestAppendJSONMatchesReflect(t *testing.T) {
	check := func(t *testing.T, rep *core.Report) {
		t.Helper()
		for depth := 0; depth <= 2; depth++ {
			want := referenceJSON(t, rep, depth)
			// AppendJSON extends dst; it must leave what dst held.
			got := AppendJSON([]byte("head"), rep, depth)
			if string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
				t.Errorf("depth %d:\n--- got ---\n%s\n--- want ---\n%s", depth, got, want)
			}
		}
	}

	t.Run("golden", func(t *testing.T) {
		dirs, err := filepath.Glob("../campiontest/golden/*/b.cfg")
		if err != nil || len(dirs) < 10 {
			t.Fatalf("golden corpus: %d pairs, %v", len(dirs), err)
		}
		for _, b := range dirs {
			dir := filepath.Dir(b)
			rawA, errA := os.ReadFile(filepath.Join(dir, "a.cfg"))
			rawB, errB := os.ReadFile(b)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			cA, errA := cisco.Parse(filepath.Join(dir, "a.cfg"), string(rawA))
			cB, errB := juniper.Parse(b, string(rawB))
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			for _, opts := range []core.Options{{}, {ExhaustiveCommunities: true}} {
				for _, pair := range [][2]*ir.Config{{cA, cB}, {cB, cA}} {
					rep, err := core.Diff(pair[0], pair[1], opts)
					if err != nil {
						t.Fatal(err)
					}
					check(t, rep)
				}
			}
		}
	})

	pr := netaddr.MustParsePrefixRange
	lines := func(file string, start, end int, text ...string) ir.TextSpan {
		return ir.TextSpan{File: file, StartLine: start, EndLine: end, Lines: text}
	}
	t.Run("handbuilt", func(t *testing.T) {
		same := &ir.Config{Hostname: "r"}
		for _, rep := range []*core.Report{
			{},
			{Config1: same, Config2: same, UnmatchedACLs1: []string{}, UnmatchedACLs2: []string{"B"}},
			{
				Config1: &ir.Config{Hostname: "r1"},
				RouteMapDiffs: []core.RouteMapDiff{
					{}, // no terms: includedPrefixes null, every omitempty member left out
					{
						Pair: core.PolicyPair{Kind: "bgp-import", Neighbor: "10.0.0.1", Name1: "A", Name2: "B"},
						Localization: headerloc.RouteLocalization{
							Terms: []ddnf.FlatTerm{
								{Include: pr("10.0.0.0/8 : 8-24")},
								{Include: pr("0.0.0.0/0 : 0-32"), Exclude: []netaddr.PrefixRange{pr("10.0.0.0/8 : 8-32"), pr("192.168.0.0/16 : 16-16")}},
							},
							Exact:              true,
							ExampleCommunities: []string{"10:10", "10:11"},
							CommunityTerms:     []headerloc.CommunityTerm{{}, {Present: []string{"10:10"}, Absent: []string{"10:11", "10:12"}}},
							CommunityComplete:  true,
						},
						Action1: "ACCEPT", Action2: "REJECT",
						Text1: lines("a.cfg", 3, 3, "route-map A permit 10"),
						Text2: lines("b.cfg", 4, 9, "term t1 {", "    then reject;", "}"),
					},
					{
						// Complete without terms, and a location with no file.
						Localization: headerloc.RouteLocalization{CommunityComplete: true, Terms: []ddnf.FlatTerm{{Include: pr("1.2.3.4/32 : 32-32")}}},
						Text1:        lines("", 7, 7),
						Text2:        lines("", 0, 2, "x"),
					},
				},
				ACLDiffs: []core.ACLPairDiff{
					{}, // srcPackets and dstPackets null
					{
						Name1: "ACL1", Name2: "ACL2",
						Localization: headerloc.ACLLocalization{
							SrcTerms:      []ddnf.FlatTerm{{Include: pr("10.1.0.0/16 : 16-32"), Exclude: []netaddr.PrefixRange{pr("10.1.1.0/24 : 24-32")}}},
							DstTerms:      []ddnf.FlatTerm{{Include: pr("0.0.0.0/0 : 0-32")}},
							ExampleFields: []string{"protocol: tcp", "dstPort: 80"},
							More:          3,
						},
						Action1: "PERMIT", Action2: "DENY",
						Text1: lines("a.cfg", 10, 11, " 10 permit tcp any any eq 80", " 20 deny ip any any"),
					},
					{Localization: headerloc.ACLLocalization{ExampleFields: []string{}, More: -1}},
				},
				Structural: []structdiff.Difference{
					{}, // zero spans: no locations
					{
						Component: "static-route", Key: "10.1.1.2/31", Field: "presence",
						Value1: "next-hop 10.2.2.2, admin-distance 1", Value2: "None",
						Span1: lines("a.cfg", 12, 12, "ip route 10.1.1.2 255.255.255.254 10.2.2.2"),
						Span2: lines("", 5, 6),
					},
				},
				UnmatchedACLs1: []string{"ONLY_A", "ONLY_A2"},
			},
		} {
			check(t, rep)
		}
	})

	t.Run("escapes", func(t *testing.T) {
		odd := "<&>\u2028\u2029\xff\xed\xa0\x80\"\\\x00\x1f\x7f\t\b\f\r–"
		span := lines("dir/"+odd+".cfg", 1, 2, "route-map "+odd+" permit 10", odd)
		check(t, &core.Report{
			Config1: &ir.Config{Hostname: odd},
			Config2: &ir.Config{Hostname: odd},
			RouteMapDiffs: []core.RouteMapDiff{{
				Pair: core.PolicyPair{Kind: odd, Neighbor: odd, Name1: odd, Name2: odd},
				Localization: headerloc.RouteLocalization{
					ExampleCommunities: []string{odd},
					CommunityTerms:     []headerloc.CommunityTerm{{Present: []string{odd}, Absent: []string{odd}}},
				},
				Action1: odd, Action2: odd, Text1: span, Text2: span,
			}},
			ACLDiffs:       []core.ACLPairDiff{{Name1: odd, Localization: headerloc.ACLLocalization{ExampleFields: []string{odd}}, Action1: odd, Text1: span}},
			Structural:     []structdiff.Difference{{Component: odd, Key: odd, Field: odd, Value1: odd, Value2: odd, Span1: span, Span2: span}},
			UnmatchedACLs1: []string{odd},
			UnmatchedACLs2: []string{odd},
		})
	})
}

// FuzzJSONString: for arbitrary bytes, AppendJSONString writes exactly
// what json.Marshal writes for the same string.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain ascii", "<>&", "\x7f", "\x00\x01\x1f\b\f\n\r\t", `"\`,
		"\u2028\u2029", "\xff", "\xed\xa0\x80", "a\xe2\x80", "–™😀",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, err := json.Marshal(string(b))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, string(b)); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %s, want %s", b, got, want)
		}
	})
}
