// Package netaddr provides IPv4 addresses, prefixes, wildcard matchers, and
// prefix ranges (a prefix paired with an interval of prefix lengths), the
// address vocabulary used throughout Campion's semantic and structural
// checks. Prefix ranges are the representation HeaderLocalize reasons over:
// the pair (1.2.0.0/16, 16-32) denotes all prefixes whose first 16 bits
// match 1.2 and whose length lies in [16, 32].
package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
	}
	var a uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
		}
		a = a<<8 | uint32(n)
	}
	return Addr(a), nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.appendTo(buf[:0]))
}

// appendTo appends the dotted-quad form of a to b.
func (a Addr) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(a>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(a)), 10)
}

// Bit returns bit i of the address, counting from the most significant bit
// (bit 0 is the top bit). It is used by the BDD encodings.
func (a Addr) Bit(i int) bool {
	return a&(1<<(31-uint(i))) != 0
}

// Mask returns the network mask with the top length bits set.
func Mask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - uint(length))
}

// Prefix is an IPv4 prefix in canonical form: all bits beyond Len are zero.
type Prefix struct {
	Addr Addr
	Len  uint8
}

// NewPrefix canonicalizes addr to length len (host bits zeroed).
func NewPrefix(addr Addr, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: Addr(uint32(addr) & Mask(int(length))), Len: length}
}

// ParsePrefix parses "a.b.c.d/len" or a bare address (treated as /32).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		a, err := ParseAddr(s)
		if err != nil {
			return Prefix{}, err
		}
		return Prefix{Addr: a, Len: 32}, nil
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("netaddr: invalid prefix length in %q", s)
	}
	return NewPrefix(a, uint8(n)), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// PrefixFromMask converts an address and a contiguous network mask
// (e.g. 255.255.255.254) to a prefix. It reports false if the mask has
// non-contiguous set bits.
func PrefixFromMask(addr, mask Addr) (Prefix, bool) {
	m := uint32(mask)
	length := 0
	for length < 32 && m&(1<<(31-uint(length))) != 0 {
		length++
	}
	if m != Mask(length) {
		return Prefix{}, false
	}
	return NewPrefix(addr, uint8(length)), true
}

func (p Prefix) String() string {
	var buf [len("255.255.255.255/255")]byte
	return string(p.appendTo(buf[:0]))
}

// appendTo appends the "a.b.c.d/len" form of p to b.
func (p Prefix) appendTo(b []byte) []byte {
	b = p.Addr.appendTo(b)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(p.Len), 10)
}

// NetMask returns the contiguous network mask for the prefix length.
func (p Prefix) NetMask() Addr {
	return Addr(Mask(int(p.Len)))
}

// Contains reports whether address a lies inside p.
func (p Prefix) Contains(a Addr) bool {
	return uint32(a)&Mask(int(p.Len)) == uint32(p.Addr)
}

// ContainsPrefix reports whether q is a (non-strict) refinement of p:
// q's length is at least p's and q's address matches p's bits.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && uint32(q.Addr)&Mask(int(p.Len)) == uint32(p.Addr)
}

// Compare orders prefixes by address then length, for deterministic output.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Addr < q.Addr:
		return -1
	case p.Addr > q.Addr:
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}

// Wildcard matches addresses against a pattern with a Cisco-style wildcard
// mask: set bits in Mask are "don't care".
type Wildcard struct {
	Addr Addr
	Mask Addr // 1 bits are wildcarded
}

// WildcardFromPrefix converts a prefix to the equivalent wildcard matcher.
func WildcardFromPrefix(p Prefix) Wildcard {
	return Wildcard{Addr: p.Addr, Mask: Addr(^Mask(int(p.Len)))}
}

// AnyWildcard matches every address.
var AnyWildcard = Wildcard{Addr: 0, Mask: Addr(^uint32(0))}

// Matches reports whether a matches the wildcard pattern.
func (w Wildcard) Matches(a Addr) bool {
	care := ^uint32(w.Mask)
	return uint32(a)&care == uint32(w.Addr)&care
}

// AsPrefix reports the prefix equivalent of the wildcard if its mask is
// contiguous (all wildcard bits at the bottom).
func (w Wildcard) AsPrefix() (Prefix, bool) {
	care := ^uint32(w.Mask)
	length := 0
	for length < 32 && care&(1<<(31-uint(length))) != 0 {
		length++
	}
	if care != Mask(length) {
		return Prefix{}, false
	}
	return NewPrefix(w.Addr, uint8(length)), true
}

func (w Wildcard) String() string {
	return fmt.Sprintf("%s %s", w.Addr, w.Mask)
}

// PrefixRange is a set of prefixes: those whose address matches
// Prefix.Addr on the first Prefix.Len bits and whose length lies in
// [Lo, Hi]. This is the unit of HeaderLocalize's output vocabulary.
type PrefixRange struct {
	Prefix Prefix
	Lo, Hi uint8
}

// Universe is the range of all prefixes, (0.0.0.0/0, 0-32).
var Universe = PrefixRange{Prefix: Prefix{}, Lo: 0, Hi: 32}

// NewPrefixRange builds a canonical prefix range. Lo is clamped up to the
// prefix length when below it would be vacuous for membership semantics;
// callers that need the raw bounds should construct the struct directly.
func NewPrefixRange(p Prefix, lo, hi uint8) PrefixRange {
	if hi > 32 {
		hi = 32
	}
	return PrefixRange{Prefix: p, Lo: lo, Hi: hi}
}

// ExactRange is the range containing only prefix p itself.
func ExactRange(p Prefix) PrefixRange {
	return PrefixRange{Prefix: p, Lo: p.Len, Hi: p.Len}
}

// IsEmpty reports whether the range denotes no prefixes.
func (r PrefixRange) IsEmpty() bool {
	return r.Lo > r.Hi
}

// ContainsPrefix reports whether prefix q is a member of r: q's address
// matches r's prefix bits and q's length is within [Lo, Hi].
func (r PrefixRange) ContainsPrefix(q Prefix) bool {
	if r.IsEmpty() {
		return false
	}
	if q.Len < r.Lo || q.Len > r.Hi {
		return false
	}
	return uint32(q.Addr)&Mask(int(r.Prefix.Len)) == uint32(r.Prefix.Addr)
}

// Intersect returns the intersection of two prefix ranges and whether it is
// non-empty. Members must match both address patterns (so the longer
// pattern must refine the shorter) and both length intervals.
func (r PrefixRange) Intersect(s PrefixRange) (PrefixRange, bool) {
	if r.IsEmpty() || s.IsEmpty() {
		return PrefixRange{}, false
	}
	longer, shorter := r, s
	if s.Prefix.Len > r.Prefix.Len {
		longer, shorter = s, r
	}
	if !shorter.Prefix.ContainsPrefix(longer.Prefix) {
		return PrefixRange{}, false
	}
	lo := r.Lo
	if s.Lo > lo {
		lo = s.Lo
	}
	hi := r.Hi
	if s.Hi < hi {
		hi = s.Hi
	}
	if lo > hi {
		return PrefixRange{}, false
	}
	// A member must have length >= its own length... membership only
	// constrains the first longer.Prefix.Len address bits, but a prefix of
	// length L has all bits beyond L zero, so patterns longer than hi can
	// still be satisfied; no extra clamping is needed.
	return PrefixRange{Prefix: longer.Prefix, Lo: lo, Hi: hi}, true
}

// ContainsRange reports whether every member of s is a member of r.
// Empty ranges are contained in everything.
func (r PrefixRange) ContainsRange(s PrefixRange) bool {
	if s.IsEmpty() {
		return true
	}
	if r.IsEmpty() {
		return false
	}
	if s.Lo < r.Lo || s.Hi > r.Hi {
		// s admits a length outside r's interval. That length might still
		// be unrealizable only if s were empty, which it is not.
		return false
	}
	if !r.Prefix.ContainsPrefix(s.Prefix) {
		// s's pattern does not refine r's. There can still be containment
		// only when s is empty.
		return false
	}
	// s's members additionally must have length >= s.Lo; if s.Lo is
	// below s.Prefix.Len, members shorter than the pattern length exist
	// only when the pattern's tail bits are zero. Membership as defined
	// compares the full pattern length bits against the member's canonical
	// (zero-padded) address, which the checks above already cover.
	return true
}

// Equal reports semantic equality of two ranges (both empty, or identical
// pattern and interval).
func (r PrefixRange) Equal(s PrefixRange) bool {
	if r.IsEmpty() && s.IsEmpty() {
		return true
	}
	return r.Prefix == s.Prefix && r.Lo == s.Lo && r.Hi == s.Hi
}

// Compare orders ranges for deterministic output: by prefix, then Lo, Hi.
func (r PrefixRange) Compare(s PrefixRange) int {
	if c := r.Prefix.Compare(s.Prefix); c != 0 {
		return c
	}
	switch {
	case r.Lo < s.Lo:
		return -1
	case r.Lo > s.Lo:
		return 1
	case r.Hi < s.Hi:
		return -1
	case r.Hi > s.Hi:
		return 1
	}
	return 0
}

func (r PrefixRange) String() string {
	var buf [len("255.255.255.255/255 : 255-255")]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the "a.b.c.d/len : lo-hi" form of r to b.
func (r PrefixRange) AppendTo(b []byte) []byte {
	b = r.Prefix.appendTo(b)
	b = append(b, " : "...)
	b = strconv.AppendUint(b, uint64(r.Lo), 10)
	b = append(b, '-')
	return strconv.AppendUint(b, uint64(r.Hi), 10)
}

// ParsePrefixRange parses the "a.b.c.d/len : lo-hi" form produced by
// String, and also accepts a bare prefix (meaning the exact range).
func ParsePrefixRange(s string) (PrefixRange, error) {
	parts := strings.Split(s, ":")
	p, err := ParsePrefix(strings.TrimSpace(parts[0]))
	if err != nil {
		return PrefixRange{}, err
	}
	if len(parts) == 1 {
		return ExactRange(p), nil
	}
	if len(parts) != 2 {
		return PrefixRange{}, fmt.Errorf("netaddr: invalid prefix range %q", s)
	}
	bounds := strings.Split(strings.TrimSpace(parts[1]), "-")
	if len(bounds) != 2 {
		return PrefixRange{}, fmt.Errorf("netaddr: invalid prefix range bounds %q", s)
	}
	lo, err := strconv.Atoi(strings.TrimSpace(bounds[0]))
	if err != nil || lo < 0 || lo > 32 {
		return PrefixRange{}, fmt.Errorf("netaddr: invalid prefix range low bound %q", s)
	}
	hi, err := strconv.Atoi(strings.TrimSpace(bounds[1]))
	if err != nil || hi < 0 || hi > 32 {
		return PrefixRange{}, fmt.Errorf("netaddr: invalid prefix range high bound %q", s)
	}
	return PrefixRange{Prefix: p, Lo: uint8(lo), Hi: uint8(hi)}, nil
}

// MustParsePrefixRange is ParsePrefixRange that panics on error.
func MustParsePrefixRange(s string) PrefixRange {
	r, err := ParsePrefixRange(s)
	if err != nil {
		panic(err)
	}
	return r
}

// PortRange is an inclusive range of transport-layer ports.
type PortRange struct {
	Lo, Hi uint16
}

// AllPorts matches every port.
var AllPorts = PortRange{Lo: 0, Hi: 65535}

// SinglePort is the range containing only p.
func SinglePort(p uint16) PortRange { return PortRange{Lo: p, Hi: p} }

// Contains reports whether p lies in the range.
func (r PortRange) Contains(p uint16) bool { return p >= r.Lo && p <= r.Hi }

func (r PortRange) String() string {
	if r.Lo == r.Hi {
		return strconv.Itoa(int(r.Lo))
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}
