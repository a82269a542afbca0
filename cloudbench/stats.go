package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q of the samples at or below it). xs need
// not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps q*n that are whole numbers in exact arithmetic (0.9*100)
// from rounding up a rank.
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples a reported percentile must leave above it;
// a percentile with fewer behind it is one or two outliers, not a tail.
const minBeyond = 10

// p99 returns the 99th percentile of xs, or an error when xs has too few
// samples for ten to lie beyond it (fewer than 1000).
func p99(xs []float64) (float64, error) {
	if n := len(xs); n == 0 || n-rank(0.99, n) < minBeyond {
		return math.NaN(), fmt.Errorf("%d samples leave fewer than %d beyond the 99th percentile", len(xs), minBeyond)
	}
	return quantile(xs, 0.99), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// heapSampler samples the live heap (what the last GC marked live) every
// 2 ms on its own goroutine and keeps the highest value seen. The live heap,
// unlike heap in use, does not count garbage awaiting collection, whose
// amount depends on how the GC was scheduled rather than on the program.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := append([]metrics.Sample(nil), heapSample...)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if v := liveHeap(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	if v := liveHeap(append([]metrics.Sample(nil), heapSample...)); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / mb
}

// allocMeter measures process-wide allocation across a span of work.
type allocMeter struct{ bytes, objects uint64 }

func readAlloc() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.TotalAlloc, m.Mallocs}
}

func (a allocMeter) since(b allocMeter) allocMeter {
	return allocMeter{a.bytes - b.bytes, a.objects - b.objects}
}

// reportHashes persists the SHA-256 of Result.Report() per topology seed
// across runs in one checkout, so every run — of any workload — is checked
// against every earlier run on the same world.
type reportHashes struct {
	mu   sync.Mutex
	path string
}

func newReportHashes(root string) *reportHashes {
	return &reportHashes{path: filepath.Join(root, ".bench_build", "report-hashes.json")}
}

func hashReport(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

// check compares hash with the stored hash for the topology seed, storing it
// when the seed is new. It returns the hash the seed is pinned to.
func (r *reportHashes) check(seed uint64, hash, workload string) (pinned string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	known := map[string]map[string]string{}
	if data, err := os.ReadFile(r.path); err == nil {
		if err := json.Unmarshal(data, &known); err != nil {
			return "", fmt.Errorf("report hashes: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return "", err
	}
	key := fmt.Sprint(seed)
	if e, ok := known[key]; ok {
		return e["sha256"], nil
	}
	known[key] = map[string]string{"sha256": hash, "first_workload": workload}
	data, err := json.MarshalIndent(known, "", "  ")
	if err != nil {
		return "", err
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	return hash, os.Rename(tmp, r.path)
}

// provenance describes the machine, toolchain and source a run measured.
func provenance(b *bench) map[string]any {
	return map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.window.Seconds(),
		"trace":      b.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     envOr("CLOUDBENCH_COMMIT", "unknown"),
		"source":     sourceHash(b.root),
		"started":    time.Now().UTC().Format(time.RFC3339),
		"worlds":     "topology seed of world i = seed*1000 + i",
		"params":     map[string]any{},
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the measured program's Go sources (the root
// module, the benchmark excluded), which identifies the code even in a
// checkout that is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "cloudbench" || rel == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)[:8])
}
