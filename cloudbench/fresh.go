package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cloudmap"
	"cloudmap/internal/border"
	"cloudmap/internal/pipeline"
	"cloudmap/internal/probe"
	"cloudmap/internal/route"
)

// smallConfig is the benchmark's pipeline configuration: SmallConfig over
// the given topology seed.
func smallConfig(topoSeed uint64, workers int) cloudmap.Config {
	cfg := cloudmap.SmallConfig()
	cfg.Topology.Seed = topoSeed
	cfg.Workers = workers
	return cfg
}

// worldSeed is the topology seed of world i of a run. A run spreads its
// passes over several worlds derived from the workload seed, because the
// cost of a pass varies by about ten percent from one topology to the next:
// a median over several worlds describes the seed, one world would not.
func worldSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// worldsPerRun is how many worlds a run measures. Passes cycle through them
// and stop only after a whole number of cycles, so the median weighs every
// world equally and covers the same worlds however fast the code is.
const worldsPerRun = 3

// morePasses reports whether a run that has made done passes since start
// goes on: until the window has passed and the last cycle of worlds is
// complete.
func morePasses(done int, start time.Time, window time.Duration) bool {
	return done < worldsPerRun || done%worldsPerRun != 0 || time.Since(start) < window
}

// pass is one timed RunPipeline call.
type pass struct {
	wall   time.Duration
	alloc  allocMeter
	heapMB float64
	res    *cloudmap.Result
	rep    *cloudmap.RunReport
}

// timedRun runs the pipeline on sys, timing the call and sampling the heap.
// A GC first gives every pass the same starting heap.
func timedRun(sys *cloudmap.System, cfg cloudmap.Config, opts cloudmap.RunOptions) (pass, error) {
	runtime.GC()
	a0 := readAlloc()
	h := startHeapSampler()
	t0 := time.Now()
	res, rep, err := cloudmap.RunPipeline(context.Background(), sys, cfg, opts)
	p := pass{wall: time.Since(t0), heapMB: h.Stop(), res: res, rep: rep}
	p.alloc = readAlloc().since(a0)
	return p, err
}

// newWorld generates a world untimed by the pass that uses it, returning the
// generation time.
func newWorld(cfg cloudmap.Config) (*cloudmap.System, time.Duration, error) {
	t0 := time.Now()
	sys, err := cloudmap.NewSystem(cfg)
	return sys, time.Since(t0), err
}

// stageStatus returns the named stage's status in a run's stage rows.
func stageStatus(stages []pipeline.StageResult, name string) pipeline.Status {
	for _, sr := range stages {
		if sr.Name == name {
			return sr.Status
		}
	}
	return ""
}

// checkReport hashes the run's report and checks it against the hash pinned
// for the world's topology seed by every earlier run in this checkout, of
// any workload.
func (b *bench) checkReport(hashes *reportHashes, res *cloudmap.Result) {
	topoSeed := res.Config.Topology.Seed
	h := hashReport(res.Report())
	pinned, err := hashes.check(topoSeed, h, b.workload)
	if err != nil {
		b.check(false, "report hash store: %v", err)
		return
	}
	b.check(h == pinned, "report hash %s differs from %s pinned for topology seed %d", h[:12], pinned[:12], topoSeed)
}

// runFresh is the cold batch run: one RunPipeline per pass on a world
// generated anew for the pass, at workers = nproc, without checkpoints.
func runFresh(b *bench) error {
	b.param("scale", "small")
	b.param("workers", b.nproc)
	b.param("checkpoint_dir", "none")
	if b.traced {
		return freshTraced(b, smallConfig(worldSeed(b.seed, 0), b.nproc))
	}
	hashes := newReportHashes(b.root)
	var setups, walls, allocs, heaps []float64
	start := time.Now()
	for morePasses(len(walls), start, b.window) {
		p, gen, err := freshPass(b, smallConfig(worldSeed(b.seed, len(walls)%worldsPerRun), b.nproc), hashes)
		if err != nil {
			return err
		}
		setups = append(setups, gen.Seconds())
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc.bytes)/mb)
		heaps = append(heaps, p.heapMB)
	}
	b.param("passes", len(walls))
	b.param("run_s", walls)
	b.param("heap_peak_mb", heaps)
	b.set("setup_s", median(setups))
	b.set("run_s", median(walls))
	b.set("alloc_mb", median(allocs))
	b.set("heap_peak_mb", median(heaps))
	return nil
}

// freshTraced measures fresh's per-layer metrics: the stage rows of one run,
// the campaign re-driven call by call under spans, and its reconciliation
// against an untraced campaign at one worker. The shared layer suite, a
// short churn phase and a fleet run fill the remaining layers.
func freshTraced(b *bench, cfg cloudmap.Config) error {
	hashes := newReportHashes(b.root)
	p, _, err := freshPass(b, cfg, hashes)
	if err != nil {
		return err
	}
	b.setStages([][]pipeline.StageResult{p.rep.Manifest.Stages})

	// The campaign hands traces to Consume on its merge goroutine while its
	// worker goes on probing, so at one worker the two still overlap when
	// there is a second processor. Both sides of the reconciliation run on
	// one processor, where the campaign's wall time is a sum as the spans'
	// is.
	prev := runtime.GOMAXPROCS(1)
	campaign, err := campaignAtOneWorker(b, cfg)
	var probeBusy, consumeBusy time.Duration
	if err == nil {
		probeBusy, consumeBusy, err = redrive(b, cfg)
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	covered := probeBusy + consumeBusy
	b.param("reconcile", map[string]any{
		"gomaxprocs": 1, "campaign_w1_ms": ms(campaign), "traceroute_at_ms": ms(probeBusy), "consume_ms": ms(consumeBusy),
	})
	b.set("trace.unaccounted_pct", 100*float64(campaign-covered)/float64(campaign))

	if err := layerSuite(b, cfg); err != nil {
		return err
	}
	if err := churnPhaseForSuite(b); err != nil {
		return err
	}
	return fleetPhaseForSuite(b, hashes)
}

// freshPass is one checked fresh run on a world of its own; it returns the
// pass and the world's generation time.
func freshPass(b *bench, cfg cloudmap.Config, hashes *reportHashes) (pass, time.Duration, error) {
	sys, gen, err := newWorld(cfg)
	if err != nil {
		return pass{}, 0, err
	}
	p, err := timedRun(sys, cfg, cloudmap.RunOptions{})
	if !b.check(err == nil, "RunPipeline: %v", err) {
		return pass{}, 0, fmt.Errorf("RunPipeline: %w", err)
	}
	if st := stageStatus(p.rep.Manifest.Stages, "campaign"); st != pipeline.StatusOK {
		return pass{}, 0, fmt.Errorf("guard: campaign stage is %q, want ok", st)
	}
	b.checkReport(hashes, p.res)
	return p, gen, nil
}

// campaignAtOneWorker is the reconciliation's untraced reference: the
// campaign stage's wall time in a fresh run at one worker.
func campaignAtOneWorker(b *bench, cfg cloudmap.Config) (time.Duration, error) {
	cfg.Workers = 1
	sys, _, err := newWorld(cfg)
	if err != nil {
		return 0, err
	}
	p, err := timedRun(sys, cfg, cloudmap.RunOptions{})
	if !b.check(err == nil, "RunPipeline at one worker: %v", err) {
		return 0, fmt.Errorf("RunPipeline: %w", err)
	}
	for _, sr := range p.rep.Manifest.Stages {
		if sr.Name == "campaign" {
			return sr.Wall, nil
		}
	}
	return 0, fmt.Errorf("run at one worker has no campaign stage")
}

// redrive re-issues round 1 of the campaign at one worker, call by call, in
// a fault-free world at virtual time 0: the inputs are ChunkCampaign over
// Round1Targets for the Amazon VMs, exactly what the campaign stage probes.
// Each call into route, probe and border gets its own span under its
// chunk's span. TracerouteAt and Consume are re-driven together on a cold
// world, as the campaign calls them; TraceAt gets a pass of its own after
// them, so that it does not warm the forwarder for the calls that are
// reconciled. It returns the busy sums of TracerouteAt and Consume, each
// less what its spans themselves add.
func redrive(b *bench, cfg cloudmap.Config) (probeBusy, consumeBusy time.Duration, err error) {
	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		return 0, 0, err
	}
	pr, fwd, t := sys.Prober, sys.Forwarder, sys.Topology
	vms := pr.VMs("amazon")
	targets := probe.Round1Targets(t, probe.Round1Options{IncludePrivate: cfg.IncludePrivateTargets})
	chunks := probe.ChunkCampaign(vms, targets)
	inf := border.New(sys.Registry, "amazon")
	sl := b.spans
	root := sl.begin("campaign.redrive", -1)
	calls := 0
	for _, wc := range chunks {
		cs := sl.begin("chunk", root)
		for _, dst := range targets[wc.From:wc.To] {
			s := sl.begin("probe.TracerouteAt", cs)
			tr, _, err := pr.TracerouteAt(wc.VM, dst, 0)
			sl.end(s)
			if err != nil {
				return 0, 0, err
			}
			s = sl.begin("border.Consume", cs)
			inf.Consume(tr)
			sl.end(s)
			calls++
		}
		sl.end(cs)
	}
	for _, wc := range chunks {
		c, ok := t.CloudByName(wc.VM.Cloud)
		if !ok {
			return 0, 0, fmt.Errorf("redrive: unknown cloud %q", wc.VM.Cloud)
		}
		vm := route.VM{Cloud: c.ID, Region: wc.VM.Region}
		cs := sl.begin("chunk", root)
		for _, dst := range targets[wc.From:wc.To] {
			s := sl.begin("route.TraceAt", cs)
			fwd.TraceAt(vm, dst, 0)
			sl.end(s)
		}
		sl.end(cs)
	}
	sl.end(root)
	perSpan := emptySpanNS()
	b.param("empty_span_ns", perSpan)
	empty := time.Duration(perSpan * float64(calls))
	return sl.busy("probe.TracerouteAt") - empty, sl.busy("border.Consume") - empty, nil
}

// setStages sets the stage.* rows and pipeline.skip_ratio as means over the
// given passes (one per run or epoch).
func (b *bench) setStages(passes [][]pipeline.StageResult) {
	wall := map[string]float64{}
	alloc := map[string]float64{}
	var skipped, total int
	for _, stages := range passes {
		for _, sr := range stages {
			wall[sr.Name] += sr.WallMS
			alloc[sr.Name] += float64(sr.AllocBytes) / mb
			total++
			if sr.Status == pipeline.StatusSkippedUnchanged {
				skipped++
			}
		}
	}
	n := float64(len(passes))
	for _, name := range cloudmap.StageNames() {
		b.set("stage."+name+".wall_ms", wall[name]/n)
		b.set("stage."+name+".alloc_mb", alloc[name]/n)
	}
	if total > 0 {
		b.set("pipeline.skip_ratio", float64(skipped)/float64(total))
	}
}
