package cloudmap

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"cloudmap/internal/datasets"
	"cloudmap/internal/pipeline"
)

// hygieneConfig is the dirty-data twin of SmallConfig: same seed and
// topology, plus the checked-in moderate dirty plan.
func hygieneConfig(t *testing.T) Config {
	t.Helper()
	plan, err := datasets.LoadDirtyPlan("testdata/dirtyplans/moderate.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.Dirty = plan
	return cfg
}

var (
	hygOnce sync.Once
	hygRes  *Result
	hygRep  *RunReport
	hygErr  error
)

// hygieneRun executes the dirty-data pipeline once for the whole test
// binary.
func hygieneRun(t *testing.T) (*Result, *RunReport) {
	t.Helper()
	hygOnce.Do(func() {
		hygRes, hygRep, hygErr = RunPipeline(context.Background(), nil, hygieneConfig(t), RunOptions{})
	})
	if hygErr != nil {
		t.Fatal(hygErr)
	}
	return hygRes, hygRep
}

// TestHygieneCleanManifest: a clean run still round-trips every dataset
// through the hygiene layer — the manifest carries a dataset_hygiene
// section with zero quarantines, and no degradation section appears.
func TestHygieneCleanManifest(t *testing.T) {
	res := smallRun(t)
	rep := smallReport(t)
	h := rep.Manifest.DatasetHygiene
	if h == nil {
		t.Fatal("clean run has no dataset_hygiene manifest section")
	}
	if h.TotalQuarantined != 0 || h.TotalConflicts != 0 || len(h.EmptyDatasets) != 0 {
		t.Fatalf("clean run dirtied its own datasets: %+v", h)
	}
	if h.TotalKept == 0 {
		t.Fatal("clean run kept no dataset records")
	}
	for _, ds := range datasets.Datasets {
		if s := h.Datasets[ds]; s == nil || s.Kept == 0 {
			t.Errorf("dataset %s missing or empty in clean hygiene report", ds)
		}
	}
	if rep.Manifest.Degradation != nil {
		t.Errorf("clean run has a degradation section: %+v", rep.Manifest.Degradation)
	}
	if res.Hygiene == nil || res.Hygiene.Registry == nil {
		t.Fatal("result carries no hygiene view")
	}
	if len(res.Verified.LowConfidence) != 0 {
		t.Errorf("clean run marked %d interfaces low-confidence", len(res.Verified.LowConfidence))
	}
}

// TestHygienePrecisionHoldsCoverageDegrades is the chaos acceptance
// criterion: under the moderate dirty plan the pinning cross-validation
// keeps its precision (drop < 2 points versus the clean twin) while
// coverage degrades smoothly — dirty inputs lose records and therefore
// reach, not correctness.
func TestHygienePrecisionHoldsCoverageDegrades(t *testing.T) {
	base := smallRun(t)
	dirty, _ := hygieneRun(t)

	bp, dp := base.PinningCV.Precision, dirty.PinningCV.Precision
	if dp < bp-0.02 {
		t.Errorf("precision collapsed under dirty datasets: %.4f -> %.4f (drop %.4f >= 0.02)", bp, dp, bp-dp)
	}
	br, dr := base.PinningCV.Recall, dirty.PinningCV.Recall
	if dr > br+0.02 {
		t.Errorf("recall inflated under dirty datasets: %.4f -> %.4f", br, dr)
	}
	if dr < br/2 {
		t.Errorf("recall collapsed under dirty datasets: %.4f -> %.4f (more than halved)", br, dr)
	}
}

// TestHygieneManifestDegradation: a dirty run's manifest must say so —
// quarantine totals in the degradation section, the datasets stage marked
// degraded, and the §8 bdrmap baseline sitting the run out.
func TestHygieneManifestDegradation(t *testing.T) {
	res, rep := hygieneRun(t)

	h := rep.Manifest.DatasetHygiene
	if h == nil || h.TotalQuarantined == 0 {
		t.Fatalf("dirty run's dataset_hygiene section missing or empty: %+v", h)
	}
	deg := rep.Manifest.Degradation
	if deg == nil {
		t.Fatal("dirty run has no manifest degradation section")
	}
	if deg.QuarantinedRecords != h.TotalQuarantined {
		t.Errorf("degradation quarantine count %d != hygiene report %d", deg.QuarantinedRecords, h.TotalQuarantined)
	}
	if deg.ConflictsResolved == 0 {
		t.Error("moderate plan resolved no origin conflicts")
	}
	found := false
	for _, name := range deg.DegradedStages {
		if name == "datasets" {
			found = true
		}
	}
	if !found {
		t.Errorf("datasets stage not in DegradedStages: %v", deg.DegradedStages)
	}
	for _, sr := range rep.Manifest.Stages {
		if sr.Name == "bdrmap" && sr.Status != pipeline.StatusSkippedDegraded {
			t.Errorf("bdrmap status = %q, want %q (must not compare a clean baseline against dirty-data inference)", sr.Status, pipeline.StatusSkippedDegraded)
		}
	}
	if res.Bdrmap != nil {
		t.Error("bdrmap result present despite dirty datasets")
	}
	// Conflict-resolved origins surface as low-confidence labels downstream.
	if len(res.Verified.LowConfidence) == 0 {
		t.Error("dirty run marked nothing low-confidence")
	}
}

// TestHygieneReplayIdentical: the same seed and plan replay the
// dataset_hygiene section byte-identically, at any worker count.
func TestHygieneReplayIdentical(t *testing.T) {
	res1, rep1 := hygieneRun(t)
	for _, workers := range []int{1, 2} {
		cfg := hygieneConfig(t)
		cfg.Workers = workers
		res2, rep2, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h1, err := json.Marshal(rep1.Manifest.DatasetHygiene)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := json.Marshal(rep2.Manifest.DatasetHygiene)
		if err != nil {
			t.Fatal(err)
		}
		if string(h1) != string(h2) {
			t.Fatalf("dataset_hygiene differs at workers=%d:\n  %s\n  %s", workers, h1, h2)
		}
		if res1.Report() != res2.Report() {
			t.Fatalf("dirty-run report depends on worker count (%d)", workers)
		}
	}
}

// TestHygieneEmptyDatasetDegradesDependents: a plan that quarantines an
// entire dataset marks it empty and the stages that cite it run degraded
// instead of asserting unlabeled results.
func TestHygieneEmptyDatasetDegradesDependents(t *testing.T) {
	cfg := SmallConfig()
	cfg.Dirty = &datasets.DirtyPlan{Seed: 11, Datasets: map[string]datasets.Dirt{
		datasets.DSFacilities: {DropFrac: 1.0},
	}}
	_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Manifest.DatasetHygiene
	if h == nil || len(h.EmptyDatasets) != 1 || h.EmptyDatasets[0] != datasets.DSFacilities {
		t.Fatalf("empty datasets = %+v, want [facilities]", h)
	}
	deg := rep.Manifest.Degradation
	if deg == nil {
		t.Fatal("run with a wiped dataset has no degradation section")
	}
	foundPinning := false
	for _, name := range deg.DegradedStages {
		if name == "pinning" {
			foundPinning = true
		}
	}
	if !foundPinning {
		t.Errorf("pinning not degraded despite empty facilities: %v", deg.DegradedStages)
	}
	if len(deg.EmptyDatasets) != 1 || deg.EmptyDatasets[0] != datasets.DSFacilities {
		t.Errorf("degradation empty datasets = %v, want [facilities]", deg.EmptyDatasets)
	}
}

// TestDegradationReportDatasetOnly: a run whose only adversity is dataset
// quarantine (zero probe loss, zero retries) still produces a non-nil
// degradation section — dirty inputs alone must not read as a clean run.
func TestDegradationReportDatasetOnly(t *testing.T) {
	st := &pipeState{
		hyg: &datasets.View{Report: &datasets.HygieneReport{
			Datasets:         map[string]*datasets.DatasetSummary{},
			TotalQuarantined: 3,
		}},
	}
	rep := degradationReport(st, nil)
	if rep == nil {
		t.Fatal("quarantine-only degradation reported as nil")
	}
	if rep.QuarantinedRecords != 3 || rep.RetriesSpent != 0 || rep.ProbeLossPct != 0 {
		t.Fatalf("unexpected degradation report: %+v", rep)
	}
	// And with nothing at all, the report stays nil.
	if rep := degradationReport(&pipeState{}, nil); rep != nil {
		t.Fatalf("empty state produced a degradation report: %+v", rep)
	}
}

// TestConfigHashDirtyPlan: the dirty plan participates in the manifest's
// reported config hash by value.
func TestConfigHashDirtyPlan(t *testing.T) {
	base := configHash(SmallConfig())
	mk := func(seed uint64) Config {
		cfg := SmallConfig()
		cfg.Dirty = &datasets.DirtyPlan{Seed: seed, Datasets: map[string]datasets.Dirt{
			datasets.DSRib: {DropFrac: 0.1},
		}}
		return cfg
	}
	if configHash(mk(7)) != configHash(mk(7)) {
		t.Error("equal dirty plans at different addresses hash differently")
	}
	if configHash(mk(7)) == base {
		t.Error("dirty plan does not affect the config hash")
	}
	if configHash(mk(8)) == configHash(mk(7)) {
		t.Error("dirty plan seed does not affect the config hash")
	}
}
