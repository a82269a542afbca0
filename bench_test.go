package cloudmap

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// exercises the stage that regenerates its table/figure and reports the
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// doubles as the reproduction harness at test scale (cmd/experiments is the
// paper-scale run).

import (
	"context"
	"sync"
	"testing"

	"cloudmap/internal/border"
	"cloudmap/internal/grouping"
	"cloudmap/internal/icg"
	"cloudmap/internal/midar"
	"cloudmap/internal/pinning"
	"cloudmap/internal/probe"
	"cloudmap/internal/stats"
	"cloudmap/internal/verify"
	"cloudmap/internal/vpi"

	bdr "cloudmap/internal/bdrmap"
)

// benchState shares one simulated world and pipeline run across benches.
type benchState struct {
	sys *System
	res *Result
}

var (
	benchOnce sync.Once
	benchVal  *benchState
	benchErr  error
)

func benchSetup(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		cfg := SmallConfig()
		sys, err := NewSystem(cfg)
		if err != nil {
			benchErr = err
			return
		}
		res, err := RunOn(sys, cfg)
		if err != nil {
			benchErr = err
			return
		}
		benchVal = &benchState{sys: sys, res: res}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchVal
}

// BenchmarkTable1BorderInference regenerates Table 1: the two probing rounds
// plus the §4.1 border walk.
func BenchmarkTable1BorderInference(b *testing.B) {
	s := benchSetup(b)
	targets := probe.Round1Targets(s.sys.Topology, probe.Round1Options{})
	vms := s.sys.Prober.VMs("amazon")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf := border.New(s.sys.Registry, "amazon")
		if _, err := s.sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, vms, targets, 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
			b.Fatal(err)
		}
		inf.BeginRound2()
		if _, err := s.sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, vms, probe.ExpansionTargets(inf.CandidateCBIs()), 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(inf.BreakdownABIs().Total), "ABIs")
			b.ReportMetric(float64(inf.BreakdownCBIs().Total), "CBIs")
		}
	}
}

// BenchmarkTable2Heuristics regenerates Table 2: the verification heuristics
// plus alias-set corrections.
func BenchmarkTable2Heuristics(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := verify.Run(s.res.Border, s.sys.Registry, s.sys.Prober.ReachableFromVP, s.res.Aliases, verify.DefaultOptions())
		if i == 0 {
			total := len(s.res.Border.CandidateABIs())
			b.ReportMetric(100*float64(total-v.UnconfirmedABIs)/float64(total), "%confirmed")
		}
	}
}

// BenchmarkMIDARAliasResolution regenerates the §5.2 alias sets.
func BenchmarkMIDARAliasResolution(b *testing.B) {
	s := benchSetup(b)
	targets := append(s.res.Border.CandidateABIs(), s.res.Border.CandidateCBIs()...)
	vms := s.sys.Prober.VMs("amazon")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := midar.Resolve(s.sys.Prober, vms, targets, midar.DefaultConfig())
		if i == 0 {
			b.ReportMetric(float64(len(sets)), "alias-sets")
		}
	}
}

// BenchmarkTable3Pinning regenerates Table 3: anchors, co-presence
// propagation, and the region fallback.
func BenchmarkTable3Pinning(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pinning.Run(s.res.Verified, s.res.Border, s.sys.Registry, s.sys.Prober, s.res.Aliases, pinning.DefaultOptions())
		if i == 0 {
			b.ReportMetric(100*float64(len(p.Metro))/float64(p.TotalIfaces), "%pinned")
		}
	}
}

// BenchmarkPinningCrossValidation regenerates §6.2's precision/recall.
func BenchmarkPinningCrossValidation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv := pinning.CrossValidate(s.res.Pinning, s.res.Aliases, 10, 0.7, 1)
		if i == 0 {
			b.ReportMetric(100*cv.Precision, "%precision")
			b.ReportMetric(100*cv.Recall, "%recall")
		}
	}
}

// BenchmarkFig4aABIRTTCDF regenerates Fig. 4a's distribution and knee.
func BenchmarkFig4aABIRTTCDF(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stats.NewCDF(s.res.Pinning.ABIMinRTTs)
		_ = c.Knee()
		if i == 0 {
			b.ReportMetric(s.res.Pinning.NativeKnee, "knee-ms")
			b.ReportMetric(100*c.FracBelow(2), "%under-2ms")
		}
	}
}

// BenchmarkFig4bSegmentRTTDiff regenerates Fig. 4b.
func BenchmarkFig4bSegmentRTTDiff(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stats.NewCDF(s.res.Pinning.SegmentDiffs)
		_ = c.Knee()
		if i == 0 {
			b.ReportMetric(s.res.Pinning.SegKnee, "knee-ms")
			b.ReportMetric(100*c.FracBelow(2), "%under-2ms")
		}
	}
}

// BenchmarkFig5RegionRatio regenerates Fig. 5.
func BenchmarkFig5RegionRatio(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stats.NewCDF(s.res.Pinning.RegionRatios)
		above := 1 - c.FracBelow(1.5)
		if i == 0 {
			b.ReportMetric(100*above, "%ratio>1.5")
		}
	}
}

// BenchmarkTable4VPIDetection regenerates Table 4: foreign-cloud probing and
// CBI overlap.
func BenchmarkTable4VPIDetection(b *testing.B) {
	s := benchSetup(b)
	clouds := []string{"microsoft", "google", "ibm", "oracle"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vpi.Detect(s.sys.Prober, s.sys.Registry, s.res.Border, clouds)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*float64(len(v.VPICBIs))/float64(v.AmazonNonIXPCBIs), "%vpi-share")
		}
	}
}

// BenchmarkTable5Grouping regenerates Table 5 (and the Fig. 6 features).
func BenchmarkTable5Grouping(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := grouping.Classify(s.res.Verified, s.res.Border, s.sys.Registry, s.res.VPI, s.res.Pinning)
		if i == 0 {
			b.ReportMetric(100*g.HiddenShare, "%hidden")
		}
	}
}

// BenchmarkTable6HybridPeering regenerates Table 6 (combo extraction is part
// of Classify; this bench isolates repeated classification over the same
// inputs to size the stage).
func BenchmarkTable6HybridPeering(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := grouping.Classify(s.res.Verified, s.res.Border, s.sys.Registry, s.res.VPI, s.res.Pinning)
		if i == 0 {
			b.ReportMetric(float64(len(g.Combos)), "combos")
		}
	}
}

// BenchmarkFig6GroupFeatures isolates the Fig. 6 feature summarisation.
func BenchmarkFig6GroupFeatures(b *testing.B) {
	s := benchSetup(b)
	g := s.res.Groups
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, feats := range g.Fig6 {
			for _, bp := range feats {
				if bp.N > 0 {
					n++
				}
			}
		}
		if i == 0 {
			b.ReportMetric(float64(n), "feature-cells")
		}
	}
}

// BenchmarkFig7ICGDegrees regenerates Fig. 7: ICG construction, degree CDFs,
// and component analysis.
func BenchmarkFig7ICGDegrees(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := icg.Build(s.res.Verified, s.res.Pinning, s.sys.Registry.World)
		if i == 0 {
			b.ReportMetric(100*g.LargestCCFrac, "%largest-cc")
		}
	}
}

// BenchmarkHiddenPeerings isolates the §7.2 hidden-share computation (it is
// part of Classify; reported separately for the experiment index).
func BenchmarkHiddenPeerings(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := grouping.Classify(s.res.Verified, s.res.Border, s.sys.Registry, s.res.VPI, s.res.Pinning)
		if i == 0 {
			b.ReportMetric(float64(g.HiddenPeerings), "hidden")
			b.ReportMetric(float64(g.BeyondBGP), "beyond-bgp")
		}
	}
}

// BenchmarkTable8Bdrmap regenerates the §8 baseline comparison.
func BenchmarkTable8Bdrmap(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := bdr.Run(s.sys.Prober, s.sys.Registry, "amazon", bdr.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cmp := bdr.Compare(runs, s.res.Verified, s.sys.Registry)
		if i == 0 {
			b.ReportMetric(float64(cmp.Flipped), "flips")
			b.ReportMetric(float64(cmp.MultiOwnerCBIs), "multi-owner")
		}
	}
}

// --- ablations -----------------------------------------------------------

// BenchmarkAblationNoExpansion measures what §4.2's expansion round buys:
// the CBI delta it contributes.
func BenchmarkAblationNoExpansion(b *testing.B) {
	s := benchSetup(b)
	targets := probe.Round1Targets(s.sys.Topology, probe.Round1Options{})
	vms := s.sys.Prober.VMs("amazon")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf := border.New(s.sys.Registry, "amazon")
		if _, err := s.sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, vms, targets, 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			withExpansion := s.res.Border.BreakdownCBIs().Total
			b.ReportMetric(float64(withExpansion-inf.BreakdownCBIs().Total), "CBIs-lost")
		}
	}
}

// BenchmarkAblationNoAliasSets measures verification without §5.2.
func BenchmarkAblationNoAliasSets(b *testing.B) {
	s := benchSetup(b)
	opts := verify.DefaultOptions()
	opts.UseAliasSets = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := verify.Run(s.res.Border, s.sys.Registry, s.sys.Prober.ReachableFromVP, nil, opts)
		if i == 0 {
			b.ReportMetric(float64(s.res.Verified.ABIToCBI-v.ABIToCBI), "corrections-lost")
		}
	}
}

// BenchmarkAblationAnchorFamilies measures pinning coverage without the DNS
// anchor family (the largest contributor in Table 3).
func BenchmarkAblationAnchorFamilies(b *testing.B) {
	s := benchSetup(b)
	opts := pinning.DefaultOptions()
	opts.DisableDNS = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pinning.Run(s.res.Verified, s.res.Border, s.sys.Registry, s.sys.Prober, s.res.Aliases, opts)
		if i == 0 {
			full := float64(len(s.res.Pinning.Metro))
			b.ReportMetric(100*(full-float64(len(p.Metro)))/full, "%coverage-lost")
		}
	}
}

// BenchmarkAblationSingleVPICloud measures the lower-bound growth from
// probing more clouds: Microsoft alone vs all four.
func BenchmarkAblationSingleVPICloud(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vpi.Detect(s.sys.Prober, s.sys.Registry, s.res.Border, []string{"microsoft"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			all := float64(len(s.res.VPI.VPICBIs))
			b.ReportMetric(100*float64(len(v.VPICBIs))/all, "%of-4cloud-bound")
		}
	}
}

// BenchmarkAblationNoOrgGrouping runs the border walk at single-ASN
// granularity (ignoring Amazon's sibling ASNs): the paper's footnote-4
// grouping exists precisely because this produces spurious "CBIs" inside
// Amazon's own WHOIS space.
func BenchmarkAblationNoOrgGrouping(b *testing.B) {
	s := benchSetup(b)
	targets := probe.Round1Targets(s.sys.Topology, probe.Round1Options{})
	vms := s.sys.Prober.VMs("amazon")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf := border.New(s.sys.Registry, "amazon")
		inf.DisableOrgGrouping(16509)
		if _, err := s.sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, vms, targets, 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			spurious := 0
			for _, ci := range inf.CBIs {
				if s.sys.Registry.AmazonASNs[ci.Ann.ASN] {
					spurious++
				}
			}
			b.ReportMetric(float64(spurious), "amazon-space-CBIs")
		}
	}
}

// BenchmarkAblationCollectorCount regenerates a world with a far denser BGP
// collector deployment and measures how much more of the AS-relationship
// fabric becomes visible: the inference's BGP inputs are only as good as
// collector placement. (The small-scale default bottoms out at 4 feeds, so
// the sweep goes upward.)
func BenchmarkAblationCollectorCount(b *testing.B) {
	base := benchSetup(b)
	baseLinks := len(base.sys.Registry.Links)
	baseAmazon := len(base.sys.Registry.AmazonLinksInBGP())
	cfg := SmallConfig()
	cfg.Topology.CollectorFeeds = 1000 // 40 feeds after scaling, vs the default 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(sys.Registry.Links))/float64(baseLinks), "links-growth")
			b.ReportMetric(float64(len(sys.Registry.AmazonLinksInBGP()))/float64(maxInt(baseAmazon, 1)), "amazon-links-growth")
		}
	}
}
