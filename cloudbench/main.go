// Command cloudbench is cloudmap's benchmark. It drives the system the way
// its users do — a cold batch run, a resident daemon under churn with
// readers attached, and a batch run farmed out to a loopback agent fleet —
// and times every call it makes into the repository's packages from the
// outside. Nothing in the measured program is instrumented for it.
//
// Usage, from the repository root:
//
//	bash cloudbench/run.sh --workload fresh|churn|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// measures the per-layer metrics and records spans around every layer call.
// The last line of standard output is the result document:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// Earlier lines carry the run's provenance and diagnostics. The full record
// (provenance, workload parameters, every measurement) is also written under
// .bench_build/results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its driver. A driver returns an
// error when the workload did not exercise what it is named for (a guard);
// output mismatches are counted as failures on the bench instead.
var workloads = map[string]func(*bench) error{
	"fresh": runFresh,
	"churn": runChurn,
	"fleet": runFleet,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: fresh, churn or fleet")
		seed     = flag.Uint64("seed", 1, "workload seed: topology, churn plan and reader mix")
		seconds  = flag.Float64("seconds", 20, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 measures per-layer metrics with spans; 0 end-to-end metrics")
		list     = flag.Bool("list", false, "print every metric with its unit and meaning, then exit")
	)
	flag.Parse()
	if *list {
		listMetrics(os.Stdout)
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cloudbench: usage: --workload fresh|churn|fleet --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: %v\n", err)
		os.Exit(1)
	}
	b, err := newBench(root, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: %v\n", err)
		os.Exit(1)
	}
	defer b.cleanup()
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: %s: %v\n", *workload, err)
		b.cleanup()
		os.Exit(1)
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: %s: %v\n", *workload, err)
		b.cleanup()
		os.Exit(1)
	}
	if err := b.writeRecord(res); err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: record: %v\n", err)
	}
	prov, _ := json.Marshal(b.provenance)
	fmt.Printf("provenance: %s\n", prov)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// bench is one benchmark run: its settings, its scratch space, and what it
// has measured and checked so far.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	nproc    int

	root    string // repository root (the working directory)
	scratch string // per-run scratch dir under .bench_build/work
	spans   *spanLog

	attempted, failed int64
	failures          []string
	metrics           map[string]metricValue
	provenance        map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the document the last stdout line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newBench prepares a run whose scratch space, records and pinned report
// hashes live under root/.bench_build.
func newBench(root, workload string, seed uint64, window time.Duration, traced bool) (*bench, error) {
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(work, workload+"-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload, seed: seed, window: window, traced: traced,
		nproc: runtime.NumCPU(), root: root, scratch: scratch,
		metrics: map[string]metricValue{},
	}
	if traced {
		b.spans = newSpanLog(fmt.Sprintf("%s-%d-%d", workload, seed, time.Now().UnixNano()))
	}
	b.provenance = provenance(b)
	return b, nil
}

// cleanup removes the run's scratch space; safe to call twice.
func (b *bench) cleanup() { os.RemoveAll(b.scratch) }

// check records one attempted operation and whether it succeeded.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		msg := fmt.Sprintf(format, args...)
		if len(b.failures) < 20 {
			b.failures = append(b.failures, msg)
		}
		fmt.Fprintf(os.Stderr, "cloudbench: failure: %s\n", msg)
	}
	return ok
}

// count records n attempted operations of which failed failed.
func (b *bench) count(n, failed int64, what string) {
	b.attempted += n
	if failed > 0 {
		b.failed += failed
		msg := fmt.Sprintf("%d of %d %s failed", failed, n, what)
		b.failures = append(b.failures, msg)
		fmt.Fprintf(os.Stderr, "cloudbench: failure: %s\n", msg)
	}
}

// set records a metric; the name must be declared in the metric table.
func (b *bench) set(name string, v float64) {
	spec, ok := specByName[name]
	if !ok {
		panic("cloudbench: undeclared metric " + name)
	}
	b.metrics[name] = metricValue{Value: v, Unit: spec.Unit}
}

// param records a workload parameter in the run's provenance.
func (b *bench) param(name string, v any) {
	b.provenance["params"].(map[string]any)[name] = v
}

// result assembles the output document: every metric of the run's kind
// (end-to-end or per-layer) must have been measured.
func (b *bench) result() (*result, error) {
	if b.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	want := endToEnd
	if b.traced {
		want = perLayer
		b.set("fail_ratio", float64(b.failed)/float64(b.attempted))
		b.set("trace.spans", float64(b.spans.count()))
	}
	out := map[string]metricValue{}
	for _, s := range want {
		v, ok := b.metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = v
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: out}, nil
}

// writeRecord stores the full run record under .bench_build/results and the
// spans of a traced run under .bench_build/spans.
func (b *bench) writeRecord(res *result) error {
	dir := filepath.Join(b.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"provenance": b.provenance,
		"result":     res,
		"failures":   b.failures,
	}
	if b.spans != nil {
		path, n, err := b.spans.writeTo(filepath.Join(b.root, ".bench_build", "spans"), b.workload)
		if err != nil {
			return err
		}
		rec["spans"] = map[string]any{"path": path, "count": n}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", b.workload, b.seed, boolInt(b.traced), time.Now().Unix())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
