package session

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// memoDevice renders variant v of the component-memo table's device: one
// of every IR family the route-policy and ACL digests must tell apart.
func memoDevice(host string, v int) string {
	return fmt.Sprintf(`hostname %[1]s
!
interface GigabitEthernet0/0
 ip address 10.0.1.1 255.255.255.0
 ip ospf cost 10
 ip access-group EDGE in
!
ip prefix-list CUST permit 10.%[2]d.0.0/16 le 24
ip prefix-list UNUSED permit 192.0.2.0/24
ip community-list standard BLOCK permit 65000:%[3]d
ip as-path access-list 5 permit ^6450%[4]d_
!
route-map IMPORT deny 10
 match community BLOCK
route-map IMPORT deny 15
 match as-path 5
route-map IMPORT permit 20
 match ip address CUST
 set local-preference %[5]d
route-map EXPORT permit 10
 match ip address CUST
!
ip access-list extended EDGE
 10 deny ip 192.168.%[4]d.0 0.0.0.255 any
 20 permit ip any any
!
ip route 10.50.%[4]d.0 255.255.255.0 10.0.1.254
!
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
!
router bgp 65001
 neighbor 10.0.1.254 remote-as 64600
 neighbor 10.0.1.254 description upstream
 neighbor 10.0.1.254 route-map IMPORT in
 neighbor 10.0.1.254 route-map EXPORT out
`, host, 10+v, 100+v, v, 100+10*v)
}

// TestComponentMemoSoundness drives a warm session through one edit per
// IR family, each applied to the same device's base snapshot. After every
// edit the session's rendering of every pair must be byte-identical to a
// cold, store-free (so memo-free) DiffFleet. An edit must make the audit
// compute exactly the semantic components whose inputs it changes, for
// every rep pair it re-diffs, and recall the other ones.
func TestComponentMemoSoundness(t *testing.T) {
	// Three variants, two devices each, plus m6: a variant-0 device with
	// an extra static route, so the seed audit already compares variant 0
	// with itself. m3, the device edited below, sorts between the other
	// variants' members, so its pairs with them are joint jobs.
	snaps := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("m%d", i)
		snaps[name] = []byte(memoDevice(name, i%3))
	}
	snaps["m6"] = []byte(memoDevice("m6", 0) + "ip route 10.66.0.0 255.255.0.0 10.0.1.254\n")
	journal := obs.NewJournal(nil)
	var mu sync.Mutex
	computed, recalled := map[string]bool{}, map[string]bool{}
	journal.Listen(func(e obs.Event) {
		if e.Type != obs.EvComponent || e.Kind != "SemanticDiff" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if e.Op == "cached" {
			recalled[e.Component] = true
		} else {
			computed[e.Component] = true
		}
	})
	s := New(Options{Journal: journal})
	seedSession(t, s, snaps)
	base := string(snaps["m3"])

	replace := func(old, new string) func(string) string {
		return func(text string) string {
			if !strings.Contains(text, old) {
				t.Fatalf("edit target %q not in the snapshot", old)
			}
			return strings.Replace(text, old, new, 1)
		}
	}
	const rm, acl = "route-maps", "acls"
	edits := []struct {
		name string
		edit func(string) string
		miss []string // the components the edit changes
	}{
		{"static route", func(text string) string { return text + "ip route 10.77.0.0 255.255.0.0 10.0.1.254\n" }, nil},
		{"interface address", replace("ip address 10.0.1.1", "ip address 10.0.1.2"), nil},
		{"hostname", replace("hostname m3", "hostname m3-renamed"), nil},
		{"bgp neighbor description", replace("description upstream", "description transit"), nil},
		{"bgp neighbor remote-as", replace("remote-as 64600", "remote-as 64601"), nil},
		{"ospf cost", replace("ip ospf cost 10", "ip ospf cost 20"), nil},
		{"admin distance", replace("router ospf 1\n", "router ospf 1\n distance 115\n"), nil},
		{"bgp import policy name", replace("route-map IMPORT in", "route-map EXPORT in"), []string{rm}},
		{"comment above the route maps", replace("route-map IMPORT deny 10\n", "! policies\nroute-map IMPORT deny 10\n"), []string{rm, acl}},
		{"prefix-list entry", replace("10.10.0.0/16 le 24", "10.10.0.0/16 le 28"), []string{rm}},
		{"unreferenced prefix list", replace("192.0.2.0/24", "198.51.100.0/24"), []string{rm}},
		{"community-list entry", replace("permit 65000:100", "permit 65000:199"), []string{rm}},
		{"as-path regex", replace("^64500_", "^64599_"), []string{rm}},
		{"route-map set", replace("set local-preference 100", "set local-preference 101"), []string{rm}},
		{"acl line", replace("192.168.0.0 0.0.0.255", "192.168.9.0 0.0.0.255"), []string{acl}},
	}
	ctx := context.Background()
	for _, e := range edits {
		clear(computed)
		clear(recalled)
		snaps["m3"] = []byte(e.edit(base))
		res, err := s.Ingest(ctx, "m3", snaps["m3"], "push", true)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if res.ParseError != "" || res.Audit == nil {
			t.Fatalf("%s: ingest %+v", e.name, res)
		}
		if got, want := renderAll(t, sessionResult(t, s)), renderAll(t, coldResult(t, snaps)); !bytes.Equal(got, want) {
			t.Fatalf("%s: session reports differ from a cold DiffFleet:\n%s\nvs\n%s", e.name, got, want)
		}
		a := res.Audit
		if a.ComponentsComputed != len(e.miss)*a.RepComputed || a.ComponentsRecalled != (2-len(e.miss))*a.RepComputed {
			t.Errorf("%s: %d components recalled, %d computed over %d rep pairs; want %d computed per pair",
				e.name, a.ComponentsRecalled, a.ComponentsComputed, a.RepComputed, len(e.miss))
		}
		for _, c := range []string{rm, acl} {
			miss := slices.Contains(e.miss, c)
			if a.RepComputed > 0 && (computed[c] != miss || recalled[c] == miss) {
				t.Errorf("%s: %s computed %t, recalled %t; want computed %t", e.name, c, computed[c], recalled[c], miss)
			}
		}
	}
	if a := s.LastAudit(); a.RepComputed == 0 {
		t.Fatalf("vacuous: the last edit re-diffed nothing: %+v", a)
	}
}
