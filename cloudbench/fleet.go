package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cloudmap"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/metrics"
	"cloudmap/internal/pipeline"
)

// fleetRig is nproc in-process probe agents, each with its own world, each
// serving the lease protocol on a loopback listener behind a timing wrapper.
type fleetRig struct {
	urls    []string
	servers []*http.Server
	spans   *spanLog

	mu     sync.Mutex
	serve  []float64 // lease handler time, ms
	bytes  int64     // lease response bytes
	leases int64
}

// startFleet builds the agents and waits for each one's first healthy
// heartbeat, returning the set-up time.
func startFleet(b *bench, cfg cloudmap.Config, n int) (*fleetRig, time.Duration, error) {
	t0 := time.Now()
	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	r := &fleetRig{spans: b.spans}
	for i := 0; i < n; i++ {
		sys, err := cloudmap.NewSystem(cfg)
		if err != nil {
			r.close()
			return nil, 0, err
		}
		ag := dispatch.NewAgent(dispatch.AgentOptions{ID: fmt.Sprintf("bench-agent-%d", i), Prober: sys.Prober, Fingerprint: fp})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, 0, err
		}
		srv := &http.Server{Handler: r.wrap(ag.Handler())}
		go srv.Serve(ln)
		r.servers = append(r.servers, srv)
		r.urls = append(r.urls, "http://"+ln.Addr().String())
	}
	for _, u := range r.urls {
		if err := awaitHealthy(u, fp); err != nil {
			r.close()
			return nil, 0, err
		}
	}
	return r, time.Since(t0), nil
}

// awaitHealthy polls the agent's health endpoint until it answers with the
// expected world fingerprint.
func awaitHealthy(base, fp string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/agent/v1/health")
		if err == nil {
			var h dispatch.Health
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && h.Fingerprint == fp {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agent %s not healthy: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wrap times every lease the agent serves and counts its response bytes.
func (r *fleetRig) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/agent/v1/lease" {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, req)
		t1 := time.Now()
		r.spans.add("dispatch.lease", -1, t0, t1)
		r.mu.Lock()
		r.serve = append(r.serve, ms(t1.Sub(t0)))
		r.bytes += cw.n
		r.leases++
		r.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// take returns and resets the lease measurements.
func (r *fleetRig) take() (serve []float64, bytes, leases int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	serve, bytes, leases = r.serve, r.bytes, r.leases
	r.serve, r.bytes, r.leases = nil, 0, 0
	return
}

// close shuts every agent server down and waits for in-flight leases.
func (r *fleetRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range r.servers {
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
	}
}

// fleetRun is one timed RunPipeline dispatched to the fleet, with its
// controller's lease counters.
type fleetRun struct {
	pass
	stats dispatch.Stats
}

func runOnFleet(b *bench, r *fleetRig, cfg cloudmap.Config, hashes *reportHashes) (*fleetRun, error) {
	sys, _, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	p, err := timedRun(sys, cfg, cloudmap.RunOptions{Dispatch: &dispatch.Options{Agents: r.urls, Metrics: reg}})
	if !b.check(err == nil, "RunPipeline over the fleet: %v", err) {
		return nil, err
	}
	c := func(name string) int64 { return reg.Counter("dispatch." + name).Value() }
	st := dispatch.Stats{
		LeasesGranted:  c("leases_granted"),
		LeasesExpired:  c("leases_expired"),
		ChunksRehedged: c("chunks_rehedged"),
		AgentsLost:     c("agents_lost"),
		ChunksLocal:    c("chunks_local"),
		LeaseFailures:  c("lease_failures"),
	}
	if st.LeasesGranted == 0 {
		return nil, fmt.Errorf("guard: no leases granted (%d chunks ran locally)", st.ChunksLocal)
	}
	if s := stageStatus(p.rep.Manifest.Stages, "campaign"); s != pipeline.StatusOK {
		return nil, fmt.Errorf("guard: campaign stage is %q, want ok", s)
	}
	// Any chunk the fleet could not finish, and any failed lease, is a
	// failure of the fleet path even though the output stays correct.
	b.count(st.LeasesGranted+st.ChunksLocal, st.LeaseFailures+st.ChunksLocal, "leases and local chunks")
	b.checkReport(hashes, p.res)
	return &fleetRun{pass: p, stats: st}, nil
}

// runFleet is fresh's batch run with the probing campaigns leased to a
// loopback fleet of nproc agents. Each of the run's worlds gets a fleet of
// its own, started once (a set-up sample each); passes cycle through the
// worlds, so agents persist across runs as deployed agents do.
func runFleet(b *bench) error {
	b.param("scale", "small")
	b.param("workers", b.nproc)
	b.param("agents_per_world", b.nproc)
	hashes := newReportHashes(b.root)

	worlds := worldsPerRun
	if b.traced {
		worlds = 1
	}
	var setups []float64
	var cfgs []cloudmap.Config
	var rigs []*fleetRig
	defer func() {
		for _, r := range rigs {
			r.close()
		}
	}()
	for i := 0; i < worlds; i++ {
		cfg := smallConfig(worldSeed(b.seed, i), b.nproc)
		r, d, err := startFleet(b, cfg, b.nproc)
		if !b.check(err == nil, "fleet start: %v", err) {
			return err
		}
		cfgs, rigs = append(cfgs, cfg), append(rigs, r)
		setups = append(setups, d.Seconds())
	}

	if b.traced {
		fr, err := runOnFleet(b, rigs[0], cfgs[0], hashes)
		if err != nil {
			return err
		}
		if err := b.setFleetLayers(rigs[0], fr); err != nil {
			return err
		}
		b.setStages([][]pipeline.StageResult{fr.rep.Manifest.Stages})
		if err := layerSuite(b, cfgs[0]); err != nil {
			return err
		}
		return churnPhaseForSuite(b)
	}

	var walls, allocs, heaps []float64
	start := time.Now()
	for morePasses(len(walls), start, b.window) {
		i := len(walls) % worlds
		fr, err := runOnFleet(b, rigs[i], cfgs[i], hashes)
		if err != nil {
			return err
		}
		walls = append(walls, fr.wall.Seconds())
		allocs = append(allocs, float64(fr.alloc.bytes)/mb)
		heaps = append(heaps, fr.heapMB)
	}
	b.param("run_s", walls)
	b.param("heap_peak_mb", heaps)
	b.set("setup_s", median(setups))
	b.set("run_s", median(walls))
	b.set("alloc_mb", median(allocs))
	b.set("heap_peak_mb", median(heaps))
	return nil
}

// setFleetLayers sets the dispatch.* metrics from one fleet run, and the
// reconciliation of the probing stages' lane time against the agents' busy
// time.
func (b *bench) setFleetLayers(r *fleetRig, fr *fleetRun) error {
	serve, bytes, leases := r.take()
	if leases == 0 {
		return fmt.Errorf("guard: agents served no leases")
	}
	p, err := p99(serve)
	if err != nil {
		return fmt.Errorf("guard: leases served: %v", err)
	}
	b.param("leases_served", leases)
	b.set("dispatch.lease_serve_ms_p50", median(serve))
	b.set("dispatch.lease_serve_ms_p99", p)
	b.set("dispatch.lease_bytes", float64(bytes)/float64(leases))
	b.set("dispatch.leases", float64(fr.stats.LeasesGranted))
	b.set("dispatch.rehedged", float64(fr.stats.ChunksRehedged))
	b.set("dispatch.chunks_local", float64(fr.stats.ChunksLocal))

	if b.workload == "fleet" {
		// The probing stages keep Workers leases in flight; lane time the
		// agents were not serving a lease is transfer, framing, merge and
		// idle lanes.
		var probing time.Duration
		for _, sr := range fr.rep.Manifest.Stages {
			if sr.Name == "campaign" || sr.Name == "expansion" {
				probing += sr.Wall
			}
		}
		var busy float64
		for _, v := range serve {
			busy += v
		}
		lanes := ms(probing) * float64(fr.rep.Manifest.Workers)
		b.set("trace.unaccounted_pct", 100*(lanes-busy)/lanes)
	}
	return nil
}

// fleetPhaseForSuite fills the dispatch layer for workloads that do not run
// a fleet themselves: one run on a fleet of its own.
func fleetPhaseForSuite(b *bench, hashes *reportHashes) error {
	cfg := smallConfig(worldSeed(b.seed, 0), b.nproc)
	rig, _, err := startFleet(b, cfg, b.nproc)
	if !b.check(err == nil, "fleet start: %v", err) {
		return err
	}
	defer rig.close()
	fr, err := runOnFleet(b, rig, cfg, hashes)
	if err != nil {
		return err
	}
	return b.setFleetLayers(rig, fr)
}
