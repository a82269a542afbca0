package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cloudmap"
	"cloudmap/internal/border"
	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/route"
	"cloudmap/internal/service"
	"cloudmap/internal/topo"
	"cloudmap/internal/tracefile"
)

// sampleSpan is how many leading targets of every campaign chunk the layer
// suite calls each layer on: a sample that visits every vantage VM and
// every part of the target space (about a quarter of round 1 at small
// scale).
const sampleSpan = 256

// call is one (VM, destination) input of the campaign.
type call struct {
	ref probe.VMRef
	vm  route.VM
	dst netblock.IP
}

// layerSuite measures the layers every workload shares, calling each
// layer's public functions directly on the workload seed's world: world
// construction, the route → probe → border chain, campaign scaling, the
// tracefile codec, and the service's snapshot/diff/publish on Session
// results.
func layerSuite(b *bench, cfg cloudmap.Config) error {
	sl := b.spans
	suite := sl.begin("suite.layers", -1)
	defer sl.end(suite)

	t0 := time.Now()
	t, err := topo.Generate(cfg.Topology)
	if err != nil {
		return fmt.Errorf("topo.Generate: %w", err)
	}
	t1 := time.Now()
	reg := registry.Build(t, cfg.Topology.Seed)
	t2 := time.Now()
	fwd := route.NewForwarder(t)
	t3 := time.Now()
	sl.add("topo.Generate", suite, t0, t1)
	sl.add("registry.Build", suite, t1, t2)
	sl.add("route.NewForwarder", suite, t2, t3)
	b.set("topo.generate_ms", ms(t1.Sub(t0)))
	b.set("registry.build_ms", ms(t2.Sub(t1)))
	b.set("route.new_forwarder_ms", ms(t3.Sub(t2)))

	pr := probe.NewProber(t, fwd)
	vms := pr.VMs("amazon")
	targets := probe.Round1Targets(t, probe.Round1Options{IncludePrivate: cfg.IncludePrivateTargets})
	var calls []call
	for _, wc := range probe.ChunkCampaign(vms, targets) {
		c, ok := t.CloudByName(wc.VM.Cloud)
		if !ok {
			return fmt.Errorf("unknown cloud %q", wc.VM.Cloud)
		}
		to := min(wc.To, wc.From+sampleSpan)
		for _, dst := range targets[wc.From:to] {
			calls = append(calls, call{wc.VM, route.VM{Cloud: c.ID, Region: wc.VM.Region}, dst})
		}
	}
	b.param("layer_sample_calls", len(calls))
	n := float64(len(calls))

	// route: one untimed pass warms the forwarder's egress cache, so the
	// timed passes of route and probe see the same cache state.
	for _, c := range calls {
		fwd.TraceAt(c.vm, c.dst, 0)
	}
	routeD, routeA := measure(sl, "route.TraceAt", suite, func() {
		for _, c := range calls {
			fwd.TraceAt(c.vm, c.dst, 0)
		}
	})
	traces := make([]probe.Trace, 0, len(calls))
	var hops int
	var probeErr error
	probeD, probeA := measure(sl, "probe.TracerouteAt", suite, func() {
		for _, c := range calls {
			tr, _, err := pr.TracerouteAt(c.ref, c.dst, 0)
			if err != nil {
				probeErr = err
				return
			}
			hops += len(tr.Hops)
			traces = append(traces, tr)
		}
	})
	if !b.check(probeErr == nil, "TracerouteAt: %v", probeErr) {
		return probeErr
	}
	inf := border.New(reg, "amazon")
	consD, consA := measure(sl, "border.Consume", suite, func() {
		for _, tr := range traces {
			inf.Consume(tr)
		}
	})
	b.set("route.trace_at.ns", float64(routeD)/n)
	b.set("route.trace_at.allocs", float64(routeA.objects)/n)
	b.set("route.trace_at.bytes", float64(routeA.bytes)/n)
	b.set("probe.traceroute_at.self_ns", float64(probeD-routeD)/n)
	b.set("probe.traceroute_at.allocs", float64(probeA.objects)/n)
	b.set("probe.traceroute_at.bytes", float64(probeA.bytes)/n)
	b.set("probe.hops_per_trace", float64(hops)/n)
	b.set("border.consume.ns", float64(consD)/n)
	b.set("border.consume.allocs", float64(consA.objects)/n)
	b.set("border.consume.bytes", float64(consA.bytes)/n)

	if err := tracefileSuite(b, suite, traces); err != nil {
		return err
	}
	traces = nil
	if err := campaignScaling(b, suite, t, vms, targets); err != nil {
		return err
	}
	return sessionSuite(b, suite, cfg)
}

// measure times fn once under a span and returns its wall time and the
// process-wide allocation it caused.
func measure(sl *spanLog, name string, parent int32, fn func()) (time.Duration, allocMeter) {
	runtime.GC()
	a0 := readAlloc()
	s := sl.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sl.end(s)
	return d, readAlloc().since(a0)
}

// curvePoints are the worker counts of the scaling curves: 1 through nproc,
// and at least 1 and 2 so the reported points exist on any machine.
func curvePoints(nproc int) []int {
	var ks []int
	for k := 1; k <= max(2, nproc); k++ {
		ks = append(ks, k)
	}
	return ks
}

// campaignScaling runs the full round-1 campaign at 1..nproc workers, each
// on a forwarder and prober of its own so no run inherits warm caches.
func campaignScaling(b *bench, parent int32, t *model.Topology, vms []probe.VMRef, targets []netblock.IP) error {
	curve := map[string]float64{}
	for _, k := range curvePoints(b.nproc) {
		pr := probe.NewProber(t, route.NewForwarder(t))
		var n int64
		runtime.GC()
		s := b.spans.begin(fmt.Sprintf("probe.CampaignRetryObsCtx.w%d", k), parent)
		t0 := time.Now()
		_, err := pr.CampaignRetryObsCtx(context.Background(), nil, nil, vms, targets, k, probe.RetryPolicy{}, 1, func(probe.Trace) { n++ })
		d := time.Since(t0)
		b.spans.end(s)
		if !b.check(err == nil, "campaign at %d workers: %v", k, err) {
			return err
		}
		curve[fmt.Sprintf("w%d", k)] = float64(n) / d.Seconds()
	}
	b.param("campaign_traces_per_s", curve)
	b.set("probe.campaign.traces_per_s.w1", curve["w1"])
	b.set("probe.campaign.traces_per_s.w2", curve["w2"])
	b.set("probe.campaign.speedup", curve[fmt.Sprintf("w%d", max(2, b.nproc))]/curve["w1"])
	return nil
}

// tracefileSuite encodes the sampled traces as a binary tracefile, then
// replays it at 1..nproc workers and scans it, three times each (median).
func tracefileSuite(b *bench, parent int32, traces []probe.Trace) error {
	path := filepath.Join(b.scratch, "sample.traces.bin")
	runtime.GC()
	s := b.spans.begin("tracefile.encode", parent)
	t0 := time.Now()
	fw, err := tracefile.Create(path)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		fw.Write(tr)
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("tracefile encode: %w", err)
	}
	enc := time.Since(t0)
	b.spans.end(s)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	n := float64(len(traces))
	b.set("tracefile.encode.ns_per_trace", float64(enc)/n)
	b.set("tracefile.encode.bytes_per_trace", float64(fi.Size())/n)

	curve := map[string]float64{}
	for _, k := range curvePoints(b.nproc) {
		var runs []float64
		for i := 0; i < 3; i++ {
			var got int
			s := b.spans.begin(fmt.Sprintf("tracefile.ReplayFileParallel.w%d", k), parent)
			t0 := time.Now()
			_, err := tracefile.ReplayFileParallel(path, k, func(probe.Trace) { got++ })
			runs = append(runs, float64(time.Since(t0))/n)
			b.spans.end(s)
			if !b.check(err == nil && got == len(traces), "replay at %d workers: %d of %d traces, %v", k, got, len(traces), err) {
				return fmt.Errorf("replay: %v", err)
			}
		}
		curve[fmt.Sprintf("w%d", k)] = median(runs)
	}
	b.param("replay_ns_per_trace", curve)
	b.set("tracefile.replay.ns_per_trace.w1", curve["w1"])
	b.set("tracefile.replay.ns_per_trace.w2", curve["w2"])
	b.set("tracefile.replay.speedup", curve["w1"]/curve[fmt.Sprintf("w%d", max(2, b.nproc))])

	var scans []float64
	for i := 0; i < 3; i++ {
		s := b.spans.begin("tracefile.ScanFile", parent)
		t0 := time.Now()
		sum, err := tracefile.ScanFile(path)
		scans = append(scans, ms(time.Since(t0)))
		b.spans.end(s)
		if !b.check(err == nil && sum.Traces == len(traces), "scan: %+v, %v", sum, err) {
			return fmt.Errorf("scan: %v", err)
		}
	}
	b.set("tracefile.scan_ms", median(scans))
	return os.Remove(path)
}

// sessionSuite times the service's map maintenance on real Session
// results: two epochs with churn between them, then SnapshotFrom on each,
// Diff between them and Store.Publish of the second onto the first, five
// times each (median).
func sessionSuite(b *bench, parent int32, cfg cloudmap.Config) error {
	sess, err := cloudmap.NewSession(cfg, cloudmap.SessionOptions{CheckpointDir: filepath.Join(b.scratch, "session")})
	if err != nil {
		return err
	}
	defer sess.Close()
	const reps = 5
	snapshot := func(epoch uint64) (*service.Snapshot, []float64, error) {
		res, _, err := sess.RunEpoch(context.Background())
		if !b.check(err == nil, "session epoch %d: %v", epoch, err) {
			return nil, nil, err
		}
		var snap *service.Snapshot
		var ts []float64
		for i := 0; i < reps; i++ {
			s := b.spans.begin("service.SnapshotFrom", parent)
			t0 := time.Now()
			snap = service.SnapshotFrom(epoch, res)
			ts = append(ts, ms(time.Since(t0)))
			b.spans.end(s)
		}
		return snap, ts, nil
	}
	snap1, ts1, err := snapshot(1)
	if err != nil {
		return err
	}
	sess.SetRegistry(churnPlan(b.seed).Apply(sess.System().Registry, 2))
	snap2, ts2, err := snapshot(2)
	if err != nil {
		return err
	}
	var diffs, pubs []float64
	var deltas int
	for i := 0; i < reps; i++ {
		s := b.spans.begin("service.Diff", parent)
		t0 := time.Now()
		deltas = len(service.Diff(snap1, snap2).Deltas)
		diffs = append(diffs, ms(time.Since(t0)))
		b.spans.end(s)

		st := service.NewStore()
		st.Publish(snap1)
		s = b.spans.begin("service.Store.Publish", parent)
		t0 = time.Now()
		st.Publish(snap2)
		pubs = append(pubs, ms(time.Since(t0)))
		b.spans.end(s)
	}
	b.param("session_snapshot_rows", []int{len(snap1.Peerings), len(snap2.Peerings)})
	b.param("session_diff_deltas", deltas)
	b.set("service.snapshot_ms", median(append(ts1, ts2...)))
	b.set("service.diff_ms", median(diffs))
	b.set("service.publish_ms", median(pubs))
	return nil
}
