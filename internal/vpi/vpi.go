// Package vpi detects virtual private interconnections (§7.1): a client
// border interface observed by probes from two or more cloud providers must
// sit on a cloud-exchange port carrying VPIs, because a physical
// cross-connect is exclusive to one provider. The method yields a lower
// bound — single-cloud VPIs and private-address VPIs stay invisible.
package vpi

import (
	"fmt"
	"sort"

	"cloudmap/internal/border"
	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
)

// Result is the Table 4 material.
type Result struct {
	// Order lists the foreign clouds in probing order.
	Order []string
	// Pairwise maps each foreign cloud to the CBIs shared with Amazon.
	Pairwise map[string]map[netblock.IP]struct{}
	// Cumulative counts the union after each cloud, in Order.
	Cumulative map[string]int
	// VPICBIs is the final union: Amazon CBIs inferred to ride on VPIs.
	VPICBIs map[netblock.IP]struct{}
	// AmazonNonIXPCBIs sizes the denominator used in Table 4's
	// percentages.
	AmazonNonIXPCBIs int
	// TargetsProbed is the §7.1 pool size (the paper probed ~327k).
	TargetsProbed int
}

// Pool builds the probing target pool: every non-IXP Amazon CBI, its +1
// neighbour address, and the destination that revealed it.
func Pool(inf *border.Inference) []netblock.IP {
	seen := map[netblock.IP]struct{}{}
	for addr, ci := range inf.CBIs {
		if ci.Ann.IXP >= 0 {
			continue
		}
		seen[addr] = struct{}{}
		seen[addr+1] = struct{}{}
		if ci.SampleDst != netblock.Zero {
			seen[ci.SampleDst] = struct{}{}
		}
	}
	out := make([]netblock.IP, 0, len(seen))
	for addr := range seen {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Detect probes the pool from every region of each foreign cloud, runs the
// same border inference per cloud, and intersects the CBI sets with
// Amazon's.
func Detect(pr *probe.Prober, reg *registry.Registry, amazonInf *border.Inference, clouds []string) (*Result, error) {
	res := &Result{
		Pairwise:   map[string]map[netblock.IP]struct{}{},
		Cumulative: map[string]int{},
		VPICBIs:    map[netblock.IP]struct{}{},
	}

	amazonCBIs := map[netblock.IP]struct{}{}
	for addr, ci := range amazonInf.CBIs {
		if ci.Ann.IXP < 0 {
			amazonCBIs[addr] = struct{}{}
		}
	}
	res.AmazonNonIXPCBIs = len(amazonCBIs)

	pool := Pool(amazonInf)
	res.TargetsProbed = len(pool)

	for _, cloud := range clouds {
		vms := pr.VMs(cloud)
		if len(vms) == 0 {
			return nil, fmt.Errorf("vpi: unknown cloud %q", cloud)
		}
		inf := border.New(reg, cloud)
		// One attempt per target with the fault clock at zero, outside the
		// campaign's fault schedule and retry policy.
		for _, vm := range vms {
			for _, dst := range pool {
				tr, err := pr.Traceroute(vm, dst)
				if err != nil {
					return nil, err
				}
				inf.Consume(tr)
			}
		}
		overlap := map[netblock.IP]struct{}{}
		for cbi := range inf.CBIs {
			if _, shared := amazonCBIs[cbi]; shared {
				overlap[cbi] = struct{}{}
				res.VPICBIs[cbi] = struct{}{}
			}
		}
		res.Order = append(res.Order, cloud)
		res.Pairwise[cloud] = overlap
		res.Cumulative[cloud] = len(res.VPICBIs)
	}
	return res, nil
}

// IsVPI reports whether the CBI was detected as riding on a VPI.
func (r *Result) IsVPI(cbi netblock.IP) bool {
	_, ok := r.VPICBIs[cbi]
	return ok
}
