// Replay: record a probing campaign to a tracefile, then run border
// inference purely from the file — no simulator in the loop. This mirrors
// the paper's actual workflow (probe once for 16 days, analyse the warts
// archives many times) and demonstrates that the pipeline consumes nothing
// but traces and public datasets.
//
//	go run ./examples/replay
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cloudmap"
	"cloudmap/internal/border"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

func main() {
	cfg := cloudmap.SmallConfig()
	cfg.Topology.Seed = 5
	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	path := filepath.Join(os.TempDir(), "cloudmap-replay.traces")
	defer os.Remove(path)

	// Phase 1: the measurement campaign, recorded to disk while a live
	// inference consumes it (tracefile.Tee fans the stream out).
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w, err := tracefile.NewWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	live := border.New(sys.Registry, "amazon")
	targets := probe.Round1Targets(sys.Topology, probe.Round1Options{})
	fmt.Printf("phase 1: probing %d targets from 15 regions, recording to %s\n", len(targets), path)
	if _, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, sys.Prober.VMs("amazon"), targets, 1, probe.RetryPolicy{}, 1, tracefile.Tee(w.Sink(), live.Consume)); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("  recorded %d traces (%.1f MB)\n", live.Stats.Traces, float64(st.Size())/1e6)

	// Phase 2: a fresh inference run fed exclusively from the file.
	replayed := border.New(sys.Registry, "amazon")
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	fmt.Println("phase 2: replaying the file into a fresh inference (no simulator)")
	if err := tracefile.Read(rf, replayed.Consume); err != nil {
		log.Fatal(err)
	}

	// The two runs must agree exactly.
	la, lc := live.BreakdownABIs(), live.BreakdownCBIs()
	ra, rc := replayed.BreakdownABIs(), replayed.BreakdownCBIs()
	fmt.Printf("  live:     %d ABIs, %d CBIs, %d peer ASes\n", la.Total, lc.Total, len(live.PeerASNs()))
	fmt.Printf("  replayed: %d ABIs, %d CBIs, %d peer ASes\n", ra.Total, rc.Total, len(replayed.PeerASNs()))
	if la.Total != ra.Total || lc.Total != rc.Total {
		log.Fatal("replay mismatch: the file does not carry everything the inference needs")
	}
	fmt.Println("replay is bit-identical: the pipeline needs only traces + public datasets.")
}
