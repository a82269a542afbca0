package probe

import (
	"context"
	"testing"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/route"
	"cloudmap/internal/topo"
)

func newProber(t testing.TB) (*model.Topology, *Prober) {
	t.Helper()
	tp, err := topo.Generate(topo.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tp, NewProber(tp, route.NewForwarder(tp))
}

func TestTracerouteDeterministic(t *testing.T) {
	tp, p := newProber(t)
	_ = tp
	vm := VMRef{Cloud: "amazon", Region: 0}
	dst := netblock.MustParseIP("64.0.0.1")
	a, err := p.Traceroute(vm, dst)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Traceroute(vm, dst)
	if len(a.Hops) != len(b.Hops) || a.Status != b.Status {
		t.Fatal("repeated traceroute differs")
	}
	for i := range a.Hops {
		if a.Hops[i].Addr != b.Hops[i].Addr || a.Hops[i].RTTms != b.Hops[i].RTTms {
			t.Fatalf("hop %d differs", i)
		}
	}
}

func TestTracerouteUnknownVM(t *testing.T) {
	_, p := newProber(t)
	if _, err := p.Traceroute(VMRef{Cloud: "nimbus", Region: 0}, 1); err == nil {
		t.Fatal("unknown cloud accepted")
	}
	if _, err := p.Traceroute(VMRef{Cloud: "amazon", Region: 99}, 1); err == nil {
		t.Fatal("invalid region accepted")
	}
}

func TestCampaignYieldShape(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})
	if len(targets) < 500 {
		t.Fatalf("only %d round-1 targets", len(targets))
	}
	vms := p.VMs("amazon")
	if len(vms) != 15 {
		t.Fatalf("amazon has %d VMs", len(vms))
	}
	// Sample across the whole target space (the list is sorted by address,
	// so a prefix slice would only cover one cloud's block).
	sample := make([]netblock.IP, 0, 2000)
	for i := 0; i < 2000; i++ {
		sample = append(sample, targets[i*len(targets)/2000])
	}
	var total, completed, exited, loops int
	amazonOrg := tp.OrgOf(tp.Amazon().PrimaryAS())
	_, err := p.CampaignRetryObsCtx(context.Background(), nil, nil, vms[:3], sample, 1, RetryPolicy{}, 1, func(tr Trace) {
		total++
		if tr.Status == StatusCompleted {
			completed++
		}
		if tr.Status == StatusLoop {
			loops++
		}
		for _, h := range tr.Hops {
			if !h.Responsive() || h.Addr.IsPrivate() || h.Addr.IsShared() {
				continue
			}
			owner := tp.AddrOwner(h.Addr)
			if owner == model.NoAS || tp.OrgOf(owner) != amazonOrg {
				exited++
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 6000 {
		t.Fatalf("campaign produced %d traces, want 6000", total)
	}
	// The paper reports ~7.7% completed and ~77% exiting Amazon; we only
	// check the gross shape: few complete, most exit.
	if completed == 0 || completed > total/2 {
		t.Errorf("completed=%d of %d; expected a small but non-zero fraction", completed, total)
	}
	if exited < total/3 {
		t.Errorf("only %d/%d traces exited Amazon", exited, total)
	}
}

func TestGapLimitRespected(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{IncludePrivate: true})
	vm := VMRef{Cloud: "amazon", Region: 1}
	for _, dst := range targets[:3000] {
		tr, err := p.Traceroute(vm, dst)
		if err != nil {
			t.Fatal(err)
		}
		run := 0
		for _, h := range tr.Hops {
			if h.Responsive() {
				run = 0
				continue
			}
			run++
			if run > gapLimit {
				t.Fatalf("gap of %d > limit in trace to %v", run, dst)
			}
		}
		if tr.Status == StatusGapLimit && len(tr.Hops) > 0 {
			// The trace must actually end with unresponsive hops.
			if tr.Hops[len(tr.Hops)-1].Responsive() {
				t.Fatalf("gap-limit trace to %v ends with a responsive hop", dst)
			}
		}
	}
}

func TestPrivateTargetsProduceNoPublicHops(t *testing.T) {
	_, p := newProber(t)
	vm := VMRef{Cloud: "amazon", Region: 0}
	tr, err := p.Traceroute(vm, netblock.MustParseIP("10.77.1.1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.Hops {
		if h.Responsive() && !h.Addr.IsPrivate() && !h.Addr.IsShared() {
			t.Fatalf("private target produced public hop %v", h.Addr)
		}
	}
}

func TestPingMinRTTStable(t *testing.T) {
	tp, p := newProber(t)
	// Ping a CBI from its home region: must respond with a plausible RTT.
	amazon := tp.Amazon()
	for i := range tp.Links {
		l := &tp.Links[i]
		pr := &tp.Peerings[l.Peering]
		if pr.Cloud != amazon.ID {
			continue
		}
		addr := tp.Ifaces[l.PeerIface].Addr
		vm := VMRef{Cloud: "amazon", Region: pr.RegionIdx}
		rtt1, ok1 := p.Ping(vm, addr, 20)
		if !ok1 {
			continue
		}
		rtt2, ok2 := p.Ping(vm, addr, 20)
		if !ok2 || rtt1 != rtt2 {
			t.Fatalf("ping not deterministic: %v vs %v", rtt1, rtt2)
		}
		if rtt1 <= 0 || rtt1 > 500 {
			t.Fatalf("implausible RTT %v", rtt1)
		}
		return
	}
	t.Fatal("no pingable CBI found")
}

func TestReachabilitySemantics(t *testing.T) {
	tp, p := newProber(t)
	amazon := tp.Amazon()
	// ABIs (amazon backbone interfaces) must not answer external probes.
	for _, routers := range amazon.BorderRouters {
		for _, r := range routers {
			for _, ifc := range tp.Routers[r].Ifaces {
				if tp.Ifaces[ifc].Kind != model.IfBackbone {
					continue
				}
				if p.ReachableFromVP(tp.Ifaces[ifc].Addr) {
					t.Fatalf("ABI %v reachable from VP", tp.Ifaces[ifc].Addr)
				}
			}
		}
	}
}

func TestExpansionTargets(t *testing.T) {
	cbis := []netblock.IP{
		netblock.MustParseIP("96.0.1.5"),
		netblock.MustParseIP("96.0.1.9"),
		netblock.MustParseIP("96.0.2.1"),
	}
	targets := ExpansionTargets(cbis)
	// Two /24s, 254 addresses each, minus the three CBIs themselves.
	want := 2*254 - 3
	if len(targets) != want {
		t.Fatalf("got %d expansion targets, want %d", len(targets), want)
	}
	for _, tgt := range targets {
		for _, c := range cbis {
			if tgt == c {
				t.Fatalf("expansion target %v is a CBI", tgt)
			}
		}
	}
}

func TestAliasProbeMonotoneSharedCounter(t *testing.T) {
	tp, p := newProber(t)
	// Find a shared-IPID router with >= 2 public interfaces reachable from
	// region 0.
	vm := VMRef{Cloud: "amazon", Region: 0}
	for ri := range tp.Routers {
		r := &tp.Routers[ri]
		if r.IPID != model.IPIDShared {
			continue
		}
		var addrs []netblock.IP
		for _, ifc := range r.Ifaces {
			a := tp.Ifaces[ifc].Addr
			if a.IsPrivate() || a.IsShared() || a == netblock.Zero {
				continue
			}
			addrs = append(addrs, a)
		}
		if len(addrs) < 2 {
			continue
		}
		id1, ok1 := p.AliasProbeAt(vm, addrs[0], 1.0)
		id2, ok2 := p.AliasProbeAt(vm, addrs[1], 2.0)
		id3, ok3 := p.AliasProbeAt(vm, addrs[0], 3.0)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		// Interleaved samples from one shared counter must be monotone
		// (mod wrap; rates are small enough not to wrap in 2s).
		if !(id1 <= id2 && id2 <= id3) && !(id3 < id1) /* wrapped */ {
			t.Fatalf("shared counter not monotone: %d %d %d", id1, id2, id3)
		}
		return
	}
	t.Skip("no reachable shared-IPID router with two public interfaces")
}

func TestVMsListing(t *testing.T) {
	_, p := newProber(t)
	for _, cloud := range []string{"amazon", "microsoft", "google", "ibm", "oracle"} {
		if len(p.VMs(cloud)) == 0 {
			t.Errorf("no VMs for %s", cloud)
		}
	}
	if p.VMs("nosuch") != nil {
		t.Error("VMs for unknown cloud")
	}
}
