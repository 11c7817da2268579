package netaddr

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.9.0.1", 10<<24 | 9<<16 | 1, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.0", 0, false},
		{"-1.0.0.0", 0, false},
		{"01.2.3.4", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		s := addr.String()
		// fmt reference for the dotted-quad form.
		if s != fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a)) {
			return false
		}
		back, err := ParseAddr(s)
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrBit(t *testing.T) {
	a := MustParseAddr("128.0.0.1")
	if !a.Bit(0) {
		t.Error("bit 0 of 128.0.0.1 should be set")
	}
	if !a.Bit(31) {
		t.Error("bit 31 of 128.0.0.1 should be set")
	}
	for i := 1; i < 31; i++ {
		if a.Bit(i) {
			t.Errorf("bit %d of 128.0.0.1 should be clear", i)
		}
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		len  int
		want uint32
	}{
		{0, 0},
		{1, 0x80000000},
		{8, 0xff000000},
		{16, 0xffff0000},
		{24, 0xffffff00},
		{31, 0xfffffffe},
		{32, 0xffffffff},
		{-3, 0},
		{40, 0xffffffff},
	}
	for _, c := range cases {
		if got := Mask(c.len); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.len, got, c.want)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.9.1.77/24")
	if p.String() != "10.9.1.0/24" {
		t.Errorf("canonicalization: got %s, want 10.9.1.0/24", p)
	}
	p = MustParsePrefix("10.1.1.2")
	if p.Len != 32 {
		t.Errorf("bare address should parse as /32, got /%d", p.Len)
	}
	if _, err := ParsePrefix("10.0.0.0/33"); err == nil {
		t.Error("ParsePrefix should reject /33")
	}
	if _, err := ParsePrefix("10.0.0.0/-1"); err == nil {
		t.Error("ParsePrefix should reject /-1")
	}
	if _, err := ParsePrefix("10.0.0/8"); err == nil {
		t.Error("ParsePrefix should reject malformed address")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.9.0.0/16")
	if !p.Contains(MustParseAddr("10.9.200.3")) {
		t.Error("10.9.0.0/16 should contain 10.9.200.3")
	}
	if p.Contains(MustParseAddr("10.10.0.0")) {
		t.Error("10.9.0.0/16 should not contain 10.10.0.0")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("255.255.255.255")) {
		t.Error("0.0.0.0/0 should contain everything")
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	p16 := MustParsePrefix("10.9.0.0/16")
	p24 := MustParsePrefix("10.9.1.0/24")
	if !p16.ContainsPrefix(p24) {
		t.Error("/16 should contain refining /24")
	}
	if p24.ContainsPrefix(p16) {
		t.Error("/24 should not contain /16")
	}
	if !p16.ContainsPrefix(p16) {
		t.Error("containment should be reflexive")
	}
	other := MustParsePrefix("10.10.0.0/24")
	if p16.ContainsPrefix(other) {
		t.Error("unrelated prefixes should not be contained")
	}
}

func TestPrefixFromMask(t *testing.T) {
	p, ok := PrefixFromMask(MustParseAddr("10.1.1.2"), MustParseAddr("255.255.255.254"))
	if !ok || p.String() != "10.1.1.2/31" {
		t.Errorf("got %v ok=%v, want 10.1.1.2/31", p, ok)
	}
	if _, ok := PrefixFromMask(MustParseAddr("10.0.0.0"), MustParseAddr("255.0.255.0")); ok {
		t.Error("non-contiguous mask should be rejected")
	}
	p, ok = PrefixFromMask(MustParseAddr("1.2.3.4"), MustParseAddr("255.255.255.255"))
	if !ok || p.Len != 32 {
		t.Errorf("host mask should give /32, got %v", p)
	}
	p, ok = PrefixFromMask(MustParseAddr("1.2.3.4"), MustParseAddr("0.0.0.0"))
	if !ok || p.Len != 0 || p.Addr != 0 {
		t.Errorf("zero mask should give 0.0.0.0/0, got %v", p)
	}
}

func TestWildcard(t *testing.T) {
	// Cisco-style: "9.140.0.0 0.0.1.255" matches 9.140.0.0/23.
	w := Wildcard{Addr: MustParseAddr("9.140.0.0"), Mask: MustParseAddr("0.0.1.255")}
	if !w.Matches(MustParseAddr("9.140.0.3")) {
		t.Error("wildcard should match 9.140.0.3")
	}
	if !w.Matches(MustParseAddr("9.140.1.255")) {
		t.Error("wildcard should match 9.140.1.255")
	}
	if w.Matches(MustParseAddr("9.140.2.0")) {
		t.Error("wildcard should not match 9.140.2.0")
	}
	p, ok := w.AsPrefix()
	if !ok || p.String() != "9.140.0.0/23" {
		t.Errorf("AsPrefix: got %v ok=%v, want 9.140.0.0/23", p, ok)
	}
	nc := Wildcard{Addr: 0, Mask: MustParseAddr("0.255.0.255")}
	if _, ok := nc.AsPrefix(); ok {
		t.Error("non-contiguous wildcard should not convert to prefix")
	}
	if !AnyWildcard.Matches(MustParseAddr("203.0.113.9")) {
		t.Error("AnyWildcard should match everything")
	}
}

func TestWildcardFromPrefixAgrees(t *testing.T) {
	f := func(a uint32, l uint8) bool {
		p := NewPrefix(Addr(a), l%33)
		w := WildcardFromPrefix(p)
		// The wildcard must match exactly the addresses the prefix contains.
		probes := []Addr{Addr(a), p.Addr, Addr(a ^ 1), Addr(a ^ 0x80000000), 0, ^Addr(0)}
		for _, x := range probes {
			if w.Matches(x) != p.Contains(x) {
				return false
			}
		}
		back, ok := w.AsPrefix()
		return ok && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixRangeMembership(t *testing.T) {
	r := MustParsePrefixRange("10.9.0.0/16 : 16-32")
	if !r.ContainsPrefix(MustParsePrefix("10.9.1.0/24")) {
		t.Error("range should contain 10.9.1.0/24")
	}
	if !r.ContainsPrefix(MustParsePrefix("10.9.0.0/16")) {
		t.Error("range should contain 10.9.0.0/16 itself")
	}
	if r.ContainsPrefix(MustParsePrefix("10.10.0.0/24")) {
		t.Error("range should not contain 10.10.0.0/24")
	}
	if r.ContainsPrefix(MustParsePrefix("10.0.0.0/8")) {
		t.Error("range should not contain /8 (length below Lo)")
	}
	exact := MustParsePrefixRange("10.9.0.0/16 : 16-16")
	if exact.ContainsPrefix(MustParsePrefix("10.9.1.0/24")) {
		t.Error("exact range should not contain /24")
	}
	if !Universe.ContainsPrefix(MustParsePrefix("203.0.113.0/28")) {
		t.Error("universe should contain everything")
	}
}

func TestPrefixRangeIntersect(t *testing.T) {
	a := MustParsePrefixRange("10.9.0.0/16 : 16-32")
	b := MustParsePrefixRange("10.9.1.0/24 : 24-28")
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(b) {
		t.Errorf("intersect: got %v ok=%v, want %v", got, ok, b)
	}
	// Disjoint address patterns.
	c := MustParsePrefixRange("10.10.0.0/16 : 16-32")
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint patterns should not intersect")
	}
	// Overlapping patterns, disjoint length intervals.
	d := MustParsePrefixRange("10.9.0.0/16 : 16-16")
	e := MustParsePrefixRange("10.9.0.0/16 : 17-32")
	if _, ok := d.Intersect(e); ok {
		t.Error("disjoint length intervals should not intersect")
	}
	// Universe intersection is identity.
	got, ok = Universe.Intersect(a)
	if !ok || !got.Equal(a) {
		t.Errorf("universe intersect: got %v, want %v", got, a)
	}
}

func TestPrefixRangeContainsRange(t *testing.T) {
	outer := MustParsePrefixRange("10.0.0.0/8 : 8-32")
	inner := MustParsePrefixRange("10.9.0.0/16 : 16-24")
	if !outer.ContainsRange(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsRange(outer) {
		t.Error("inner should not contain outer")
	}
	if !Universe.ContainsRange(outer) {
		t.Error("universe should contain everything")
	}
	empty := PrefixRange{Prefix: MustParsePrefix("10.0.0.0/8"), Lo: 20, Hi: 10}
	if !outer.ContainsRange(empty) {
		t.Error("everything should contain the empty range")
	}
	if empty.ContainsRange(inner) {
		t.Error("empty range should not contain a non-empty one")
	}
}

// Property: intersection agrees with pointwise membership on sampled prefixes.
func TestPrefixRangeIntersectSemantics(t *testing.T) {
	f := func(a1, a2 uint32, l1, l2, lo1, hi1, lo2, hi2 uint8) bool {
		r1 := PrefixRange{Prefix: NewPrefix(Addr(a1), l1%33), Lo: lo1 % 33, Hi: hi1 % 33}
		r2 := PrefixRange{Prefix: NewPrefix(Addr(a2), l2%33), Lo: lo2 % 33, Hi: hi2 % 33}
		inter, ok := r1.Intersect(r2)
		// Sample member candidates derived from both patterns.
		samples := []Prefix{
			NewPrefix(Addr(a1), l1%33), NewPrefix(Addr(a2), l2%33),
			NewPrefix(Addr(a1), 32), NewPrefix(Addr(a2), 32),
			NewPrefix(Addr(a1|a2), (l1%33+l2%33)/2),
			NewPrefix(Addr(a1), lo1%33), NewPrefix(Addr(a2), hi2%33),
		}
		for _, q := range samples {
			in1, in2 := r1.ContainsPrefix(q), r2.ContainsPrefix(q)
			inBoth := in1 && in2
			inInter := ok && inter.ContainsPrefix(q)
			if inBoth != inInter {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: containment agrees with pointwise membership on sampled prefixes.
func TestPrefixRangeContainsRangeSemantics(t *testing.T) {
	f := func(a1, a2 uint32, l1, l2, lo2, hi2 uint8) bool {
		r1 := PrefixRange{Prefix: NewPrefix(Addr(a1), l1%33), Lo: 0, Hi: 32}
		r2 := PrefixRange{Prefix: NewPrefix(Addr(a2), l2%33), Lo: lo2 % 33, Hi: hi2 % 33}
		if !r1.ContainsRange(r2) {
			return true // only verify the positive direction here
		}
		samples := []Prefix{
			NewPrefix(Addr(a2), l2%33), NewPrefix(Addr(a2), 32),
			NewPrefix(Addr(a2), lo2%33), NewPrefix(Addr(a2), hi2%33),
			NewPrefix(Addr(a2|1), 32),
		}
		for _, q := range samples {
			if r2.ContainsPrefix(q) && !r1.ContainsPrefix(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPrefixRangeParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"10.9.0.0/16 : 16-32",
		"0.0.0.0/0 : 0-32",
		"10.100.0.0/16 : 16-16",
	} {
		r := MustParsePrefixRange(s)
		back := MustParsePrefixRange(r.String())
		if !back.Equal(r) {
			t.Errorf("round trip %q -> %v -> %v", s, r, back)
		}
	}
	// Any field values, canonical or not, format as the fmt reference
	// below, and AppendTo appends the same text after what its buffer
	// held; a valid range parses back.
	f := func(a uint32, plen, lo, hi uint8, head string) bool {
		valid := PrefixRange{Prefix: NewPrefix(Addr(a), plen%33), Lo: lo % 33, Hi: hi % 33}
		for _, r := range []PrefixRange{{Prefix: Prefix{Addr: Addr(a), Len: plen}, Lo: lo, Hi: hi}, valid} {
			x := r.Prefix.Addr
			want := fmt.Sprintf("%d.%d.%d.%d/%d : %d-%d",
				byte(x>>24), byte(x>>16), byte(x>>8), byte(x), r.Prefix.Len, r.Lo, r.Hi)
			if r.String() != want || r.Prefix.String() != want[:strings.IndexByte(want, ' ')] ||
				string(r.AppendTo([]byte(head))) != head+want {
				return false
			}
		}
		back, err := ParsePrefixRange(valid.String())
		return err == nil && back == valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ParsePrefixRange("10.0.0.0/8 : 8"); err == nil {
		t.Error("should reject missing high bound")
	}
	if _, err := ParsePrefixRange("10.0.0.0/8 : 8-99"); err == nil {
		t.Error("should reject out-of-range bound")
	}
}

func TestPrefixRangeCompareAndString(t *testing.T) {
	a := MustParsePrefixRange("10.9.0.0/16 : 16-32")
	b := MustParsePrefixRange("10.100.0.0/16 : 16-32")
	if a.Compare(b) >= 0 {
		t.Error("10.9/16 should sort before 10.100/16")
	}
	if a.Compare(a) != 0 {
		t.Error("Compare should be reflexive zero")
	}
	if got := a.String(); got != "10.9.0.0/16 : 16-32" {
		t.Errorf("String = %q", got)
	}
}

func TestPortRange(t *testing.T) {
	r := PortRange{Lo: 100, Hi: 200}
	if !r.Contains(100) || !r.Contains(200) || !r.Contains(150) {
		t.Error("port range bounds should be inclusive")
	}
	if r.Contains(99) || r.Contains(201) {
		t.Error("port range should exclude outside values")
	}
	if SinglePort(80).String() != "80" {
		t.Errorf("SinglePort(80).String() = %q", SinglePort(80).String())
	}
	if r.String() != "100-200" {
		t.Errorf("range String = %q", r.String())
	}
	if !AllPorts.Contains(0) || !AllPorts.Contains(65535) {
		t.Error("AllPorts should contain 0 and 65535")
	}
}
