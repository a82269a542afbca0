package border

import (
	"context"
	"testing"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/route"
	"cloudmap/internal/topo"
)

// harness runs round-1 inference on the small topology.
type harness struct {
	tp  *model.Topology
	reg *registry.Registry
	pr  *probe.Prober
	inf *Inference
}

func runRound1(t testing.TB) *harness {
	t.Helper()
	tp, err := topo.Generate(topo.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.Build(tp, tp.Seed)
	pr := probe.NewProber(tp, route.NewForwarder(tp))
	inf := New(reg, "amazon")
	targets := probe.Round1Targets(tp, probe.Round1Options{})
	if _, err := pr.CampaignRetryObsCtx(context.Background(), nil, nil, pr.VMs("amazon"), targets, 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
		t.Fatal(err)
	}
	return &harness{tp: tp, reg: reg, pr: pr, inf: inf}
}

func TestRound1DiscoversBorders(t *testing.T) {
	h := runRound1(t)
	abis := h.inf.CandidateABIs()
	cbis := h.inf.CandidateCBIs()
	if len(abis) < 20 {
		t.Fatalf("only %d ABIs inferred", len(abis))
	}
	if len(cbis) < 50 {
		t.Fatalf("only %d CBIs inferred", len(cbis))
	}
	// Round 1 only sees one LAG member per bundle (.1-target hashing), so
	// CBIs need not dominate yet; expansion flips the balance decisively
	// (tested below).
	if float64(len(cbis)) < 0.7*float64(len(abis)) {
		t.Errorf("CBIs (%d) implausibly few vs ABIs (%d) even for round 1", len(cbis), len(abis))
	}
}

// TestCBIPrecision verifies candidate CBIs against ground truth: every
// inferred CBI must be an interface on a non-Amazon router (modulo the known
// Fig. 2 shift, which puts some client-internal interfaces here — those are
// still client interfaces, just one segment deep).
func TestCBIPrecision(t *testing.T) {
	h := runRound1(t)
	amazon := h.tp.Amazon()
	wrong := 0
	for _, addr := range h.inf.CandidateCBIs() {
		ifc, ok := h.tp.IfaceAt(addr)
		if !ok {
			t.Errorf("CBI %v is not any interface", addr)
			continue
		}
		if h.tp.IsCloudAS(amazon, h.tp.IfaceAS(ifc)) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d CBIs sit on Amazon routers", wrong)
	}
}

// TestABIGroundTruth: candidate ABIs are Amazon-side interfaces except for
// the deliberate address-sharing shifts, which must be a small minority and
// must sit on client border routers with Amazon-owned addresses.
func TestABIGroundTruth(t *testing.T) {
	h := runRound1(t)
	amazon := h.tp.Amazon()
	var onAmazon, shifted, other int
	for _, addr := range h.inf.CandidateABIs() {
		ifc, ok := h.tp.IfaceAt(addr)
		if !ok {
			other++
			continue
		}
		routerAS := h.tp.IfaceAS(ifc)
		owner := h.tp.Ifaces[ifc].SubnetOwner
		switch {
		case h.tp.IsCloudAS(amazon, routerAS):
			onAmazon++
		case h.tp.IsCloudAS(amazon, owner):
			shifted++ // the Fig. 2 mislabel: Amazon-owned address on client router
		default:
			other++
		}
	}
	if onAmazon == 0 {
		t.Fatal("no true ABIs found")
	}
	if other > 0 {
		t.Errorf("%d ABIs are neither Amazon-side nor shifted", other)
	}
	if shifted > onAmazon {
		t.Errorf("shifted ABIs (%d) outnumber true ABIs (%d)", shifted, onAmazon)
	}
}

func TestRecallOverPeerings(t *testing.T) {
	h := runRound1(t)
	amazon := h.tp.Amazon()
	peerASNs := h.inf.PeerASNs()
	total, found := 0, 0
	for i := range h.tp.Peerings {
		p := &h.tp.Peerings[i]
		if p.Cloud != amazon.ID {
			continue
		}
		total++
		if _, ok := peerASNs[h.tp.ASes[p.Peer].ASN]; ok {
			found++
		}
	}
	if total == 0 {
		t.Fatal("no ground-truth peerings")
	}
	// Round 1 alone will miss some (single-link enterprises with
	// unresponsive paths), but must find the clear majority of peer ASes.
	if float64(found) < 0.6*float64(total) {
		t.Errorf("round 1 found peerings for %d/%d instances", found, total)
	}
}

func TestExpansionIncreasesCBIs(t *testing.T) {
	h := runRound1(t)
	before := len(h.inf.CandidateCBIs())
	beforeABI := len(h.inf.CandidateABIs())

	h.inf.BeginRound2()
	targets := probe.ExpansionTargets(h.inf.CandidateCBIs())
	if _, err := h.pr.CampaignRetryObsCtx(context.Background(), nil, nil, h.pr.VMs("amazon"), targets, 1, probe.RetryPolicy{}, 1, h.inf.Consume); err != nil {
		t.Fatal(err)
	}
	after := len(h.inf.CandidateCBIs())
	afterABI := len(h.inf.CandidateABIs())
	if after <= before {
		t.Errorf("expansion did not add CBIs: %d -> %d", before, after)
	}
	// ABIs stay roughly constant (§4.2): allow modest growth only.
	if afterABI > beforeABI*3/2+5 {
		t.Errorf("expansion grew ABIs too much: %d -> %d", beforeABI, afterABI)
	}
	// Round-2 discoveries are flagged.
	flagged := 0
	for _, ci := range h.inf.CBIs {
		if ci.FoundInRound2 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("no CBI flagged as round-2 discovery")
	}
}

func TestOrgGroupingMatters(t *testing.T) {
	h := runRound1(t)
	// Re-run the same traces through an ASN-granularity walk: borders land
	// inside Amazon's sibling/WHOIS space (footnote 4's failure mode).
	naive := New(h.reg, "amazon")
	naive.DisableOrgGrouping(16509)
	targets := probe.Round1Targets(h.tp, probe.Round1Options{})
	if _, err := h.pr.CampaignRetryObsCtx(context.Background(), nil, nil, h.pr.VMs("amazon")[:3], targets, 1, probe.RetryPolicy{}, 1, naive.Consume); err != nil {
		t.Fatal(err)
	}
	spurious := 0
	for _, ci := range naive.CBIs {
		if h.reg.AmazonASNs[ci.Ann.ASN] {
			spurious++
		}
	}
	if spurious == 0 {
		t.Error("ASN-granularity walk produced no spurious Amazon-space CBIs; the ORG grouping would be pointless")
	}
	// The ORG-grouped walk never does this.
	for _, ci := range h.inf.CBIs {
		if h.reg.AmazonASNs[ci.Ann.ASN] {
			t.Fatalf("ORG-grouped walk classified Amazon-space %v as CBI", ci.Addr)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	h := runRound1(t)
	s := h.inf.Stats
	if s.Traces == 0 || s.LeftCloud == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	if s.LeftCloud > s.Traces {
		t.Fatalf("more traces left the cloud than exist: %+v", s)
	}
	if s.Completed == 0 {
		t.Error("no completed traces")
	}
	if s.ReenteredCloud > 0 {
		t.Errorf("%d traces re-entered Amazon; forwarding should prevent this", s.ReenteredCloud)
	}
}

func TestBreakdownsSum(t *testing.T) {
	h := runRound1(t)
	for _, b := range []MetaBreakdown{h.inf.BreakdownABIs(), h.inf.BreakdownCBIs()} {
		if b.BGP+b.Whois+b.IXP > b.Total {
			t.Fatalf("breakdown exceeds total: %+v", b)
		}
		if b.Total == 0 {
			t.Fatal("empty breakdown")
		}
	}
	// CBIs must include IXP-sourced interfaces; ABIs must not.
	if b := h.inf.BreakdownCBIs(); b.IXP == 0 {
		t.Error("no IXP CBIs")
	}
	if b := h.inf.BreakdownABIs(); b.IXP != 0 {
		t.Error("IXP ABIs found; Amazon's side is never in IXP space on outbound traces")
	}
}

func TestHybridEvidenceCollected(t *testing.T) {
	h := runRound1(t)
	hybrid := 0
	for _, ai := range h.inf.ABIs {
		if ai.pendingOnly() {
			continue
		}
		if ai.CloudNext && len(ai.NextOrgs) > 0 {
			hybrid++
		}
	}
	if hybrid == 0 {
		t.Skip("no hybrid ABIs in small topology (needs Amazon-allocated subnets on probed paths)")
	}
}

func TestReachableSlash24Tracked(t *testing.T) {
	h := runRound1(t)
	if len(h.inf.ReachableSlash24) == 0 {
		t.Fatal("no reachable /24 accounting")
	}
	for asn, set := range h.inf.ReachableSlash24 {
		if len(set) == 0 {
			t.Fatalf("ASN %d has empty reachable set", asn)
		}
		for s24 := range set {
			if s24&0xff != 0 {
				t.Fatalf("ASN %d: %v is not a /24 base", asn, netblock.IP(s24))
			}
		}
	}
}
