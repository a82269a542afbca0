package verify

import (
	"context"
	"sync"
	"testing"

	"cloudmap/internal/border"
	"cloudmap/internal/midar"
	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/route"
	"cloudmap/internal/topo"
)

type harness struct {
	tp      *model.Topology
	reg     *registry.Registry
	pr      *probe.Prober
	inf     *border.Inference
	aliases []midar.AliasSet
}

var (
	hOnce sync.Once
	hVal  *harness
	hErr  error
)

// sharedHarness runs rounds 1+2 and alias resolution once for the package.
func sharedHarness(t *testing.T) *harness {
	t.Helper()
	hOnce.Do(func() {
		tp, err := topo.Generate(topo.SmallConfig())
		if err != nil {
			hErr = err
			return
		}
		reg := registry.Build(tp, tp.Seed)
		pr := probe.NewProber(tp, route.NewForwarder(tp))
		inf := border.New(reg, "amazon")
		vms := pr.VMs("amazon")
		if _, err := pr.CampaignRetryObsCtx(context.Background(), nil, nil, vms, probe.Round1Targets(tp, probe.Round1Options{}), 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
			hErr = err
			return
		}
		inf.BeginRound2()
		if _, err := pr.CampaignRetryObsCtx(context.Background(), nil, nil, vms, probe.ExpansionTargets(inf.CandidateCBIs()), 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
			hErr = err
			return
		}
		targets := append(inf.CandidateABIs(), inf.CandidateCBIs()...)
		aliases := midar.Resolve(pr, vms, targets, midar.DefaultConfig())
		hVal = &harness{tp: tp, reg: reg, pr: pr, inf: inf, aliases: aliases}
	})
	if hErr != nil {
		t.Fatal(hErr)
	}
	return hVal
}

func runVerify(t *testing.T, opts Options) (*harness, *Result) {
	h := sharedHarness(t)
	res := Run(h.inf, h.reg, h.pr.ReachableFromVP, h.aliases, opts)
	return h, res
}

func TestHeuristicsConfirmMajority(t *testing.T) {
	h, res := runVerify(t, DefaultOptions())
	total := len(h.inf.CandidateABIs())
	confirmed := total - res.UnconfirmedABIs
	if confirmed == 0 {
		t.Fatal("no ABIs confirmed")
	}
	// The paper confirms 87.8% of ABIs; require a clear majority here.
	if float64(confirmed) < 0.6*float64(total) {
		t.Errorf("only %d/%d ABIs confirmed", confirmed, total)
	}
	for _, name := range []string{"ixp", "hybrid", "reachable"} {
		if res.Individual[name].ABIs == 0 {
			t.Errorf("heuristic %s confirmed nothing", name)
		}
	}
	// Cumulative counts are monotone in the order ixp <= hybrid <= reachable.
	if res.Cumulative["hybrid"].ABIs < res.Cumulative["ixp"].ABIs ||
		res.Cumulative["reachable"].ABIs < res.Cumulative["hybrid"].ABIs {
		t.Errorf("cumulative not monotone: %+v", res.Cumulative)
	}
}

func TestDemotionsAreCorrect(t *testing.T) {
	h, res := runVerify(t, DefaultOptions())
	amazon := h.tp.Amazon()
	// Every ABI->CBI relabel must target an interface that truly sits on a
	// client router (the Fig. 2 case).
	demoted := 0
	for abi := range res.EvidenceFor {
		_ = abi
	}
	for _, seg := range res.Segments {
		ifc, ok := h.tp.IfaceAt(seg.CBI)
		if !ok {
			t.Errorf("final CBI %v is not an interface", seg.CBI)
			continue
		}
		if h.tp.IsCloudAS(amazon, h.tp.IfaceAS(ifc)) {
			t.Errorf("final segment CBI %v sits on an Amazon router", seg.CBI)
		}
	}
	_ = demoted
	if res.ABIToCBI == 0 {
		t.Log("no ABI->CBI corrections (possible when no shifted ABI landed in an alias set)")
	}
}

func TestFinalABIsMostlyOnAmazonRouters(t *testing.T) {
	h, res := runVerify(t, DefaultOptions())
	amazon := h.tp.Amazon()
	var good, bad int
	for abi := range res.ABIs {
		ifc, ok := h.tp.IfaceAt(abi)
		if !ok {
			bad++
			continue
		}
		if h.tp.IsCloudAS(amazon, h.tp.IfaceAS(ifc)) {
			good++
		} else {
			bad++
		}
	}
	if good == 0 {
		t.Fatal("no ABIs on Amazon routers")
	}
	// Residual mislabels are those not covered by alias sets; they must be
	// a small minority.
	if float64(bad) > 0.15*float64(good+bad) {
		t.Errorf("%d of %d final ABIs are not on Amazon routers", bad, good+bad)
	}
}

func TestAblationAliasSetsMatter(t *testing.T) {
	_, with := runVerify(t, DefaultOptions())
	opts := DefaultOptions()
	opts.UseAliasSets = false
	_, without := runVerify(t, opts)
	if without.ABIToCBI != 0 || without.CBIToABI != 0 {
		t.Fatal("alias corrections applied with alias sets disabled")
	}
	if with.AliasSetsUsed == 0 {
		t.Error("no alias sets had a majority owner")
	}
}

func TestAblationHeuristics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable func(*Options)
	}{
		{"ixp", func(o *Options) { o.UseIXP = false }},
		{"hybrid", func(o *Options) { o.UseHybrid = false }},
		{"reachable", func(o *Options) { o.UseReachability = false }},
	} {
		opts := DefaultOptions()
		tc.disable(&opts)
		_, res := runVerify(t, opts)
		if _, present := res.Individual[tc.name]; present {
			t.Errorf("disabled heuristic %s still ran", tc.name)
		}
	}
}

func TestOwnerASNCoversAllCBIs(t *testing.T) {
	_, res := runVerify(t, DefaultOptions())
	for cbi := range res.CBIs {
		if _, ok := res.OwnerASN[cbi]; !ok {
			t.Fatalf("CBI %v has no owner attribution", cbi)
		}
	}
	if len(res.CBIs) == 0 || len(res.Segments) == 0 {
		t.Fatal("empty result")
	}
}

func TestSegmentsDeduplicated(t *testing.T) {
	_, res := runVerify(t, DefaultOptions())
	seen := map[border.Segment]bool{}
	for _, s := range res.Segments {
		if seen[s] {
			t.Fatalf("duplicate segment %v", s)
		}
		seen[s] = true
		if s.ABI == netblock.Zero || s.CBI == netblock.Zero {
			t.Fatalf("segment with zero endpoint: %+v", s)
		}
	}
}
