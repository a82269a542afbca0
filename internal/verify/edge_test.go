package verify

import (
	"sort"
	"testing"

	"cloudmap/internal/border"
	"cloudmap/internal/midar"
	"cloudmap/internal/netblock"
)

// TestMajorityOwner exercises the §5.2 ownership rule directly.
func TestMajorityOwner(t *testing.T) {
	h := sharedHarness(t)
	reg := h.reg

	// Build synthetic alias sets from known annotations: take three client
	// addresses of the AS with the most CBIs (lowest ASN on ties, so the
	// choice does not depend on map order) and check the majority is that AS.
	byAS := map[uint32][]netblock.IP{}
	for addr, ci := range h.inf.CBIs {
		if ci.Ann.ASN != 0 {
			byAS[uint32(ci.Ann.ASN)] = append(byAS[uint32(ci.Ann.ASN)], addr)
		}
	}
	var asn uint32
	for a, as := range byAS {
		if asn == 0 || len(as) > len(byAS[asn]) || (len(as) == len(byAS[asn]) && a < asn) {
			asn = a
		}
	}
	addrs := byAS[asn]
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	if len(addrs) > 3 {
		addrs = addrs[:3]
	}
	if len(addrs) < 2 {
		t.Skip("not enough same-AS CBIs")
	}
	owner, ok := majorityOwner(midar.AliasSet(addrs), reg)
	if !ok || uint32(owner) != asn {
		t.Fatalf("majorityOwner = %d,%v want %d", owner, ok, asn)
	}

	// A perfectly split set has no strict majority.
	var other netblock.IP
	for addr, ci := range h.inf.CBIs {
		if ci.Ann.ASN != 0 && uint32(ci.Ann.ASN) != asn {
			other = addr
			break
		}
	}
	if other != netblock.Zero {
		if _, ok := majorityOwner(midar.AliasSet{addrs[0], other}, reg); ok {
			t.Fatal("50/50 split produced a majority owner")
		}
	}

	// Unannotated-only sets yield no owner.
	if _, ok := majorityOwner(midar.AliasSet{netblock.MustParseIP("203.0.113.9")}, reg); ok {
		t.Fatal("unannotated set produced an owner")
	}
}

// TestRunWithEmptyInference verifies graceful behaviour on empty inputs.
func TestRunWithEmptyInference(t *testing.T) {
	h := sharedHarness(t)
	empty := border.New(h.reg, "amazon")
	res := Run(empty, h.reg, func(netblock.IP) bool { return false }, nil, DefaultOptions())
	if len(res.Segments) != 0 || len(res.ABIs) != 0 || len(res.CBIs) != 0 {
		t.Fatalf("empty inference produced output: %+v", res)
	}
	if res.UnconfirmedABIs != 0 {
		t.Fatal("unconfirmed ABIs without candidates")
	}
}
