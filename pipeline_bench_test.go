package cloudmap

// Benches for the staged runner itself: what the DAG adds over the
// monolithic run (per-stage attribution) and what resume saves (replaying
// checkpointed tracefiles instead of re-probing the campaigns).

import (
	"context"
	"path/filepath"
	"testing"

	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
)

// BenchmarkPipelineRun is the full staged run; the per-stage wall clock of
// the two probing rounds is reported so regressions attribute to a stage.
func BenchmarkPipelineRun(b *testing.B) {
	cfg := SmallConfig()
	for i := 0; i < b.N; i++ {
		_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, st := range rep.Manifest.Stages {
				switch st.Name {
				case "campaign", "expansion":
					b.ReportMetric(st.WallMS, st.Name+"-ms")
				}
			}
		}
	}
}

// BenchmarkPipelineObserved is BenchmarkPipelineRun with full observability
// on — journal, Chrome trace, and live progress — so the instrumentation
// overhead is the delta against BenchmarkPipelineRun (the ISSUE budget is
// <5% on the campaign).
func BenchmarkPipelineObserved(b *testing.B) {
	cfg := SmallConfig()
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		reg := metrics.NewRegistry()
		_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{
			Metrics:     reg,
			JournalPath: filepath.Join(dir, "journal.jsonl"),
			TracePath:   filepath.Join(dir, "trace.json"),
			Progress:    obs.NewProgress(reg),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, st := range rep.Manifest.Stages {
				switch st.Name {
				case "campaign", "expansion":
					b.ReportMetric(st.WallMS, st.Name+"-ms")
				}
			}
			var events int64
			for _, n := range rep.Manifest.Trace.Spans {
				events += n
			}
			b.ReportMetric(float64(events), "journal-events")
		}
	}
}

// BenchmarkPipelineResume replays checkpointed probing rounds instead of
// probing: the headline saving of checkpoint/resume.
func BenchmarkPipelineResume(b *testing.B) {
	cfg := SmallConfig()
	dir := b.TempDir()
	if _, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, st := range rep.Manifest.Stages {
				if st.Name == "campaign" {
					b.ReportMetric(st.WallMS, "replay-ms")
					b.ReportMetric(float64(st.Counters["replayed"]), "traces")
				}
			}
		}
	}
}
