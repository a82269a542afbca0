package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudmap/internal/service"
)

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(s.Name) {
			t.Errorf("metric name %q breaks the grammar", s.Name)
		}
		if !metricUnit.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q breaks the grammar", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better is %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecsMatchManifest keeps BENCHMARK.json and the metric tables the
// benchmark reports from in step.
func TestSpecsMatchManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no driver", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, got, s)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(m.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		got := m.PerLayer[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, got, s)
		}
	}
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s, want setup_s", m.EndToEnd[0].Name)
	}
	for _, s := range m.EndToEnd {
		if s.Name != "setup_s" && s.Bound > m.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", s.Name)
		}
	}
}

func TestP99TenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{10000, true},
		{1010, true},
		{1000, true},
		{999, false},
		{100, false},
		{0, false},
	} {
		xs := make([]float64, tc.n)
		_, err := p99(xs)
		if (err == nil) != tc.ok {
			t.Errorf("p99 of %d samples: err %v, want ok %v", tc.n, err, tc.ok)
		}
		if tc.ok && tc.n-rank(0.99, tc.n) < minBeyond {
			t.Errorf("p99 of %d samples leaves fewer than ten beyond", tc.n)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if v, err := p99(xs); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if m := median(xs); m != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", m)
	}
	big := make([]float64, 20000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, _ := p99(big); v != 19800 {
		t.Errorf("p99 of 1..20000 = %v, want 19800: the percentile must not move with the sample count", v)
	}
}

// TestApplyDeltas pins the churn output check: a map with its delta history
// applied renders byte-identically to the later map, and a dropped delta is
// caught.
func TestApplyDeltas(t *testing.T) {
	first := &service.PeeringsReply{Epoch: 1, Peerings: []service.Peering{
		{CBI: "10.0.0.9", ASN: 1, FirstEpoch: 1},
		{CBI: "10.0.0.10", ASN: 2, FirstEpoch: 1},
	}}
	deltas := &service.DeltasReply{Since: 1, Epoch: 3, Epochs: []*service.EpochDeltas{
		{Epoch: 2, Deltas: []service.Delta{{Kind: "add", Peering: service.Peering{CBI: "9.0.0.1", ASN: 3, FirstEpoch: 2}}}},
		{Epoch: 3, Deltas: []service.Delta{
			{Kind: "remove", Peering: service.Peering{CBI: "10.0.0.9", ASN: 1, FirstEpoch: 1}},
			{Kind: "update", Peering: service.Peering{CBI: "10.0.0.10", ASN: 4, FirstEpoch: 1}},
		}},
	}}
	got, err := applyDeltas(first, deltas, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"epoch\": 3,\n  \"peerings\": [\n" +
		"    {\n      \"cbi\": \"9.0.0.1\",\n      \"asn\": 3,\n      \"first_epoch\": 2\n    },\n" +
		"    {\n      \"cbi\": \"10.0.0.10\",\n      \"asn\": 4,\n      \"first_epoch\": 1\n    }\n  ]\n}\n"
	if string(got) != want {
		t.Errorf("applyDeltas:\n%s\nwant\n%s", got, want)
	}
	deltas.Epochs = deltas.Epochs[1:]
	if _, err := applyDeltas(first, deltas, 3); err == nil {
		t.Error("a missing epoch of deltas was not caught")
	}
}

// TestSmoke runs every workload briefly in a scratch root and checks that it
// reports every metric of its kind with no failure. The traced runs take
// about a minute each and are skipped with -short.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	traces := []bool{false}
	if !testing.Short() {
		traces = append(traces, true)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, traced := range traces {
		for _, name := range names {
			b, err := newBench(root, name, 3, 5*time.Second, traced)
			if err != nil {
				t.Fatal(err)
			}
			if err := workloads[name](b); err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			res, err := b.result()
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			b.cleanup()
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (traced %v): %d of %d failed: %v", name, traced, res.Failed, res.Attempted, b.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				if v := res.Metrics[s.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (traced %v): %s = %v", name, traced, s.Name, v)
				}
			}
			if !traced {
				for _, s := range endToEnd {
					if res.Metrics[s.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, s.Name, res.Metrics[s.Name].Value)
					}
				}
			}
		}
	}
}
