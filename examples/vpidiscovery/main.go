// VPI discovery: walk through §7.1's multi-cloud overlap method step by
// step — build the target pool from Amazon's inferred CBIs, probe it from
// each foreign cloud, and intersect the resulting border views — then check
// the detections against ground truth (the evaluation privilege the paper
// never had).
//
//	go run ./examples/vpidiscovery
package main

import (
	"context"
	"fmt"
	"log"

	"cloudmap"
	"cloudmap/internal/border"
	"cloudmap/internal/model"
	"cloudmap/internal/probe"
	"cloudmap/internal/vpi"
)

func main() {
	cfg := cloudmap.SmallConfig()
	cfg.Topology.Seed = 7
	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: Amazon-side border inference (rounds 1+2), as in §4.
	fmt.Println("step 1: inferring Amazon's borders from its 15 regions...")
	inf := border.New(sys.Registry, "amazon")
	vms := sys.Prober.VMs("amazon")
	if _, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, vms, probe.Round1Targets(sys.Topology, probe.Round1Options{}), 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
		log.Fatal(err)
	}
	inf.BeginRound2()
	if _, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, vms, probe.ExpansionTargets(inf.CandidateCBIs()), 1, probe.RetryPolicy{}, 1, inf.Consume); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d CBIs inferred\n", len(inf.CandidateCBIs()))

	// Step 2: build the §7.1 target pool — non-IXP CBIs, their +1
	// neighbours, and the destinations that revealed them.
	pool := vpi.Pool(inf)
	fmt.Printf("step 2: target pool has %d addresses\n", len(pool))

	// Step 3: probe from the other clouds and intersect.
	fmt.Println("step 3: probing the pool from microsoft, google, ibm, oracle...")
	res, err := vpi.Detect(sys.Prober, sys.Registry, inf, []string{"microsoft", "google", "ibm", "oracle"})
	if err != nil {
		log.Fatal(err)
	}
	for _, cloud := range res.Order {
		fmt.Printf("  %-10s pairwise overlap: %4d CBIs; cumulative: %4d\n",
			cloud, len(res.Pairwise[cloud]), res.Cumulative[cloud])
	}
	fmt.Printf("  => %d of %d non-IXP CBIs (%.1f%%) ride on VPIs (lower bound)\n",
		len(res.VPICBIs), res.AmazonNonIXPCBIs,
		100*float64(len(res.VPICBIs))/float64(res.AmazonNonIXPCBIs))

	// Step 4 (evaluation only): check against ground truth.
	tp := sys.Topology
	truePositives, falsePositives := 0, 0
	for addr := range res.VPICBIs {
		ifc, ok := tp.IfaceAt(addr)
		if !ok {
			falsePositives++
			continue
		}
		isVPIPort := false
		for i := range tp.Links {
			l := &tp.Links[i]
			if l.PeerIface == ifc && tp.Peerings[l.Peering].Kind == model.PeeringVPI {
				isVPIPort = true
				break
			}
		}
		if isVPIPort {
			truePositives++
		} else {
			falsePositives++
		}
	}
	fmt.Printf("step 4: ground truth check: %d true VPI ports, %d false positives\n",
		truePositives, falsePositives)
	fmt.Println("\nnote: single-cloud VPIs are invisible to this method by design —")
	fmt.Println("the paper's count is a lower bound, and so is this one.")
}
