package cloudmap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cloudmap/internal/faults"
	"cloudmap/internal/probe"
)

// TestReportGolden pins the SHA-256 of the SmallConfig seed-1 report,
// fault-free and under the moderate fault plan with two retries (the
// observability run's probing knobs). The byte-identity tests compare runs
// of the same binary against each other; this one compares against a fixed
// history, so a refactor that changes what gets probed — or when — fails
// here even if it does so deterministically. Regenerate the hashes only for
// a change that is meant to move the report.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two pipeline runs skipped in -short mode")
	}
	plan, err := faults.LoadPlan("testdata/faultplans/moderate.json")
	if err != nil {
		t.Fatal(err)
	}
	faulted := SmallConfig()
	faulted.Faults = plan
	faulted.Retry = probe.DefaultRetryPolicy()
	faulted.Retry.MaxAttempts = 3

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"clean", SmallConfig(), "df5525d0f1d9f3e446648ec5e12035b44546d685032793490fbc1ca28fffcf56"},
		{"moderate-faults", faulted, "cbaed0375432eb7b9d35d841eda00609488c88ef71a0f1697a8ffd4207495beb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _, err := RunPipeline(context.Background(), nil, tc.cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Report()))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("report SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}
