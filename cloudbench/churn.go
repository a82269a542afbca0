package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudmap"
	"cloudmap/internal/metrics"
	"cloudmap/internal/netblock"
	"cloudmap/internal/pipeline"
	"cloudmap/internal/service"
)

// churnPlan is DefaultChurnPlan reseeded with the workload seed.
func churnPlan(seed uint64) *service.ChurnPlan {
	p := service.DefaultChurnPlan()
	p.Seed = seed
	return p
}

// churnWorkers keeps pipeline workers plus the one busy client connection
// (the closed-loop reader) within nproc; the watcher is idle between epochs.
func churnWorkers(nproc int) int { return max(1, nproc-1) }

// daemonRig is an in-process cloudmapd: a service.Daemon with its state dir
// under the run's scratch space, served on a loopback listener, running
// back-to-back epochs.
type daemonRig struct {
	d      *service.Daemon
	reg    *metrics.Registry
	srv    *http.Server
	base   string
	cancel context.CancelFunc
	runErr chan error
}

// bootDaemon starts a daemon and waits until its first epoch is published,
// returning the boot time. With epochs > 0 the daemon stops by itself after
// that many epochs.
func bootDaemon(b *bench, cfg cloudmap.Config, dir string, epochs int) (*daemonRig, time.Duration, error) {
	t0 := time.Now()
	reg := metrics.NewRegistry()
	d, err := service.New(service.Config{
		Pipeline: cfg,
		Churn:    churnPlan(b.seed),
		Epochs:   epochs,
		StateDir: dir,
		Metrics:  reg,
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &daemonRig{
		d: d, reg: reg, srv: &http.Server{Handler: d.Handler()},
		base: "http://" + ln.Addr().String(), cancel: cancel, runErr: make(chan error, 1),
	}
	go r.srv.Serve(ln)
	published, unsubscribe := d.Store().Subscribe()
	defer unsubscribe()
	go func() { r.runErr <- d.Run(ctx) }()
	select {
	case <-published:
		return r, time.Since(t0), nil
	case err := <-r.runErr:
		r.runErr <- err
		r.close()
		return nil, 0, fmt.Errorf("daemon stopped before its first epoch: %v", err)
	}
}

// stop drains the daemon (the in-flight epoch completes and publishes) and
// returns Run's error.
func (r *daemonRig) stop() error {
	r.d.Stop()
	err := <-r.runErr
	r.runErr <- err
	return err
}

// close stops everything the rig started and waits for it.
func (r *daemonRig) close() {
	r.d.Stop()
	r.cancel()
	err := <-r.runErr
	r.runErr <- err
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r.srv.Shutdown(ctx) != nil {
		r.srv.Close()
	}
}

// churnOut is what one or more churn phases measured.
type churnOut struct {
	intervals    []float64            // ms between consecutive epoch events
	overheads    []float64            // ms of each interval outside the epoch's stages
	latency      map[string][]float64 // route -> read latencies, ms
	reports      []*cloudmap.EpochReport
	epochs       int
	allocBytes   uint64 // allocated while reads ran
	windowEpochs int    // epochs published while reads ran
	heaps        []float64
	deltas       int // map changes the output check replayed
}

func (o *churnOut) merge(seg *churnOut) {
	o.intervals = append(o.intervals, seg.intervals...)
	o.overheads = append(o.overheads, seg.overheads...)
	for route, lat := range seg.latency {
		o.latency[route] = append(o.latency[route], lat...)
	}
	o.reports = append(o.reports, seg.reports...)
	o.epochs += seg.epochs
	o.allocBytes += seg.allocBytes
	o.windowEpochs += seg.windowEpochs
	o.heaps = append(o.heaps, seg.heaps...)
	o.deltas += seg.deltas
}

type epochEvent struct {
	epoch uint64
	at    time.Time
}

// churnPhase runs the daemon for the window under one closed-loop reader
// and one /v1/watch subscriber, then drains it and checks that the final
// map equals the first observed map with every published delta applied.
func churnPhase(b *bench, r *daemonRig, window time.Duration, stream uint64) (*churnOut, error) {
	sl := b.spans
	phase := sl.begin("churn.phase", -1)
	defer sl.end(phase)

	first, _, err := getPeerings(r.base)
	if !b.check(err == nil, "initial /v1/peerings: %v", err) {
		return nil, err
	}
	var asns []uint32
	var cbis []string
	for _, p := range first.Peerings {
		asns = append(asns, p.ASN)
		cbis = append(cbis, p.CBI)
	}
	if len(asns) == 0 {
		return nil, errors.New("guard: the first epoch published no peerings")
	}

	var (
		current  atomic.Uint64
		mu       sync.Mutex
		events   []epochEvent
		reports  []*cloudmap.EpochReport
		watchErr error
	)
	current.Store(first.Epoch)
	watchReady := make(chan struct{})
	watchDone := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer close(watchDone)
		err := watch(ctx, r.base, first.Epoch, watchReady, func(epoch uint64, at time.Time) {
			current.Store(epoch)
			rep := r.d.LastReport()
			mu.Lock()
			events = append(events, epochEvent{epoch, at})
			if rep != nil && rep.Epoch == epoch {
				reports = append(reports, rep)
			}
			mu.Unlock()
		})
		mu.Lock()
		watchErr = err
		mu.Unlock()
	}()
	select {
	case <-watchReady:
	case <-watchDone:
		return nil, fmt.Errorf("watch: %v", watchErr)
	}

	out := &churnOut{latency: map[string][]float64{}}
	rng := rand.New(rand.NewPCG(b.seed, stream))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	var reads, readFails int64

	runtime.GC()
	a0 := readAlloc()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		route, path := pickRead(rng, asns, cbis, current.Load())
		s := sl.begin("api."+route, phase)
		t0 := time.Now()
		code, err := fetch(client, r.base+path, &buf)
		d := time.Since(t0)
		sl.end(s)
		reads++
		if err != nil || code != http.StatusOK || buf.Len() == 0 {
			readFails++
			continue
		}
		out.latency[route] = append(out.latency[route], ms(d))
	}
	end := time.Now()
	out.heaps = []float64{heap.Stop()}
	alloc := readAlloc().since(a0)
	b.count(reads, readFails, "reads")

	if err := r.stop(); !b.check(err == nil, "daemon drain: %v", err) {
		return nil, err
	}
	final, finalBody, err := getPeerings(r.base)
	if !b.check(err == nil, "final /v1/peerings: %v", err) {
		return nil, err
	}
	deltas, err := getDeltas(r.base, first.Epoch)
	if !b.check(err == nil, "final /v1/deltas: %v", err) {
		return nil, err
	}
	for _, ed := range deltas.Epochs {
		out.deltas += len(ed.Deltas)
	}
	want, err := applyDeltas(first, deltas, final.Epoch)
	b.check(err == nil && bytes.Equal(want, finalBody),
		"epoch %d map with deltas %d..%d applied differs from the epoch %d map (%v)", first.Epoch, first.Epoch+1, final.Epoch, final.Epoch, err)
	cancel()
	<-watchDone

	mu.Lock()
	defer mu.Unlock()
	byEpoch := map[uint64]*cloudmap.EpochReport{}
	for _, rep := range reports {
		byEpoch[rep.Epoch] = rep
	}
	for i := 1; i < len(events); i++ {
		if events[i].at.After(end) {
			break
		}
		if events[i].epoch != events[i-1].epoch+1 {
			b.check(false, "watch skipped from epoch %d to %d", events[i-1].epoch, events[i].epoch)
			continue
		}
		interval := ms(events[i].at.Sub(events[i-1].at))
		out.intervals = append(out.intervals, interval)
		sl.add("service.epoch", phase, events[i-1].at, events[i].at)
		if rep, ok := byEpoch[events[i].epoch]; ok {
			out.overheads = append(out.overheads, interval-stageWall(rep))
		}
	}
	inWindow := 0
	for _, ev := range events {
		if !ev.at.After(end) {
			inWindow++
		}
	}
	out.epochs = len(events)
	out.reports = reports
	out.allocBytes, out.windowEpochs = alloc.bytes, inWindow
	// A failed epoch attempt counts even when its retry succeeds: the retry
	// stretches the interval measured as the epoch time.
	degraded := r.reg.Counter("service.epochs_degraded").Value()
	attemptFails := r.reg.Counter("service.epoch_failures").Value()
	b.count(int64(len(events))+attemptFails, degraded+attemptFails, "epochs and epoch attempts")

	// Guard: after the first epoch every epoch re-homes prefixes, so both
	// probing rounds must replay their checkpoints rather than re-probe.
	if len(reports) == 0 {
		return nil, fmt.Errorf("guard: no epoch after epoch %d observed", first.Epoch)
	}
	for _, rep := range reports {
		for _, stage := range []string{"campaign", "expansion"} {
			if st := stageStatus(rep.Stages, stage); st != pipeline.StatusResumed {
				return nil, fmt.Errorf("guard: epoch %d %s stage is %q, want resumed", rep.Epoch, stage, st)
			}
		}
	}
	return out, nil
}

// pickRead draws the next read of the mix.
func pickRead(rng *rand.Rand, asns []uint32, cbis []string, epoch uint64) (route, path string) {
	roll := rng.IntN(100)
	for _, r := range routes {
		if roll < r.Share {
			route = r.Name
			break
		}
		roll -= r.Share
	}
	switch route {
	case "peerings_as":
		return route, fmt.Sprintf("/v1/peerings?as=%d", asns[rng.IntN(len(asns))])
	case "peerings_cbi":
		return route, "/v1/peerings?cbi=" + cbis[rng.IntN(len(cbis))]
	case "deltas":
		since := epoch - min(epoch-1, uint64(rng.IntN(4)))
		return route, fmt.Sprintf("/v1/deltas?since=%d", since)
	default:
		return "status", "/v1/status"
	}
}

// fetch GETs url into buf and returns the status code.
func fetch(client *http.Client, url string, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func getPeerings(base string) (*service.PeeringsReply, []byte, error) {
	var buf bytes.Buffer
	code, err := fetch(http.DefaultClient, base+"/v1/peerings", &buf)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d", code)
	}
	var rep service.PeeringsReply
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return nil, nil, err
	}
	return &rep, buf.Bytes(), nil
}

func getDeltas(base string, since uint64) (*service.DeltasReply, error) {
	var buf bytes.Buffer
	code, err := fetch(http.DefaultClient, fmt.Sprintf("%s/v1/deltas?since=%d", base, since), &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d", code)
	}
	var rep service.DeltasReply
	return &rep, json.Unmarshal(buf.Bytes(), &rep)
}

// applyDeltas replays the delta sets onto the first map and renders the
// result exactly as /v1/peerings renders a map at epoch.
func applyDeltas(first *service.PeeringsReply, deltas *service.DeltasReply, epoch uint64) ([]byte, error) {
	rows := map[string]service.Peering{}
	for _, p := range first.Peerings {
		rows[p.CBI] = p
	}
	next := first.Epoch + 1
	for _, ed := range deltas.Epochs {
		if ed.Epoch != next {
			return nil, fmt.Errorf("delta history jumps to epoch %d, want %d", ed.Epoch, next)
		}
		next++
		for _, d := range ed.Deltas {
			switch d.Kind {
			case "add", "update":
				rows[d.CBI] = d.Peering
			case "remove":
				delete(rows, d.CBI)
			default:
				return nil, fmt.Errorf("unknown delta kind %q", d.Kind)
			}
		}
	}
	if next-1 != epoch {
		return nil, fmt.Errorf("deltas end at epoch %d, map is at %d", next-1, epoch)
	}
	type keyed struct {
		ip netblock.IP
		p  service.Peering
	}
	sorted := make([]keyed, 0, len(rows))
	for cbi, p := range rows {
		ip, err := netblock.ParseIP(cbi)
		if err != nil {
			return nil, err
		}
		sorted = append(sorted, keyed{ip, p})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ip < sorted[j].ip })
	reply := service.PeeringsReply{Epoch: epoch, Peerings: make([]service.Peering, len(sorted))}
	for i, k := range sorted {
		reply.Peerings[i] = k.p
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(reply)
	return buf.Bytes(), err
}

// watch subscribes to /v1/watch from epoch since and calls onEpoch with the
// arrival time of each epoch event until ctx ends or the stream closes.
func watch(ctx context.Context, base string, since uint64, ready chan<- struct{}, onEpoch func(uint64, time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/watch?since=%d", base, since), nil)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	close(ready)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: ") && event == "epoch":
			n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				return fmt.Errorf("watch: bad id %q", line)
			}
			onEpoch(n, time.Now())
		case line == "":
			event = ""
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// runChurn is the resident daemon under churn: back-to-back epochs after the
// first, each re-homing prefixes, with reads contending with writes.
func runChurn(b *bench) error {
	workers := churnWorkers(b.nproc)
	b.param("scale", "small")
	b.param("workers", workers)
	b.param("churn_plan", churnPlan(b.seed))
	b.param("reader", "1 closed-loop connection: "+mixString())
	b.param("watchers", 1)

	// The window is split over one daemon per world; each boot is a set-up
	// sample.
	var setups []float64
	out := &churnOut{latency: map[string][]float64{}}
	for i := 0; i < worldsPerRun; i++ {
		cfg := smallConfig(worldSeed(b.seed, i), workers)
		r, d, err := bootDaemon(b, cfg, filepath.Join(b.scratch, fmt.Sprintf("state-%d", i)), 0)
		if !b.check(err == nil, "daemon boot: %v", err) {
			return err
		}
		setups = append(setups, d.Seconds())
		seg, err := churnPhase(b, r, b.window/worldsPerRun, uint64(i))
		r.close()
		if err != nil {
			return err
		}
		out.merge(seg)
	}
	if len(out.intervals) < 2 || len(out.overheads) == 0 {
		return fmt.Errorf("guard: only %d epoch intervals observed in %s", len(out.intervals), b.window)
	}
	b.param("epochs", out.epochs)
	b.param("epoch_ms", out.intervals)
	b.param("deltas_checked", out.deltas)
	if !b.traced {
		b.set("setup_s", median(setups))
		b.set("run_s", median(out.intervals)/1000)
		b.set("alloc_mb", float64(out.allocBytes)/mb/float64(out.windowEpochs))
		b.set("heap_peak_mb", median(out.heaps))
		return nil
	}
	if err := b.setChurnLayers(out, true); err != nil {
		return err
	}
	hashes := newReportHashes(b.root)
	if err := layerSuite(b, smallConfig(worldSeed(b.seed, 0), b.nproc)); err != nil {
		return err
	}
	if err := fleetPhaseForSuite(b, hashes); err != nil {
		return err
	}
	// Reconciliation: the epoch interval against the stage wall sum plus
	// the snapshot, diff and publish the layer suite timed.
	busy := b.metrics["service.snapshot_ms"].Value + b.metrics["service.diff_ms"].Value + b.metrics["service.publish_ms"].Value
	b.set("trace.unaccounted_pct", 100*(median(out.overheads)-busy)/median(out.intervals))
	return nil
}

func mixString() string {
	var parts []string
	for _, r := range routes {
		parts = append(parts, fmt.Sprintf("%s %d%%", r.Name, r.Share))
	}
	return strings.Join(parts, ", ")
}

// stageWall is the summed stage wall time of one epoch, in ms.
func stageWall(rep *cloudmap.EpochReport) float64 {
	var sum float64
	for _, sr := range rep.Stages {
		sum += sr.WallMS
	}
	return sum
}

// setChurnLayers sets the api.* and service.epoch_* metrics from a churn
// phase, and the stage rows too when the phase is the workload's own.
func (b *bench) setChurnLayers(out *churnOut, stages bool) error {
	var all []float64
	for _, r := range routes {
		lat := out.latency[r.Name]
		p, err := p99(lat)
		if err != nil {
			return fmt.Errorf("guard: %s reads: %v", r.Name, err)
		}
		all = append(all, lat...)
		b.set("api."+r.Name+".ms_p50", median(lat))
		b.set("api."+r.Name+".ms_p99", p)
	}
	p, err := p99(all)
	if err != nil {
		return fmt.Errorf("guard: reads: %v", err)
	}
	b.param("api_samples", len(all))
	b.set("api.ms_p50", median(all))
	b.set("api.ms_p99", p)
	b.set("api.samples", float64(len(all)))
	interval := median(out.intervals)
	b.set("service.epoch_ms_p50", interval)
	b.set("service.epoch_overhead_ms", median(out.overheads))
	if stages {
		var rows [][]pipeline.StageResult
		for _, rep := range out.reports {
			rows = append(rows, rep.Stages)
		}
		b.setStages(rows)
	}
	return nil
}

// churnPhaseForSuite fills the service and api layers for workloads that do
// not run a daemon themselves: a short churn phase on a daemon of its own.
func churnPhaseForSuite(b *bench) error {
	cfg := smallConfig(worldSeed(b.seed, 0), churnWorkers(b.nproc))
	r, _, err := bootDaemon(b, cfg, filepath.Join(b.scratch, "suite-state"), 0)
	if !b.check(err == nil, "daemon boot: %v", err) {
		return err
	}
	defer r.close()
	out, err := churnPhase(b, r, 6*time.Second, 0)
	if err != nil {
		return err
	}
	if len(out.intervals) == 0 || len(out.overheads) == 0 {
		return fmt.Errorf("guard: no epoch interval observed")
	}
	return b.setChurnLayers(out, false)
}
