package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog keeps the spans of one traced run in memory: every call the
// benchmark makes into a layer, with its parent. Spans are written out when
// the run ends, one tab-separated line each (id, parent, name, start and end
// in nanoseconds since the run began), gzip-compressed.
type spanLog struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	names []string
	index map[string]uint16
	spans []span
}

type span struct {
	name       uint16
	parent     int32 // -1 for a root span
	start, end int64
}

func newSpanLog(runID string) *spanLog {
	return &spanLog{runID: runID, t0: time.Now(), index: map[string]uint16{}}
}

// begin opens a span and returns its id. A nil log records nothing and
// returns -1, so untraced callers pay one nil check.
func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	n, ok := l.index[name]
	if !ok {
		n = uint16(len(l.names))
		l.names = append(l.names, name)
		l.index[name] = n
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: n, parent: parent, start: now, end: -1})
	l.mu.Unlock()
	return id
}

// end closes span id.
func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id].end = now
	l.mu.Unlock()
}

// add records an already-measured span.
func (l *spanLog) add(name string, parent int32, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	id := l.begin(name, parent)
	l.mu.Lock()
	l.spans[id].start, l.spans[id].end = int64(start.Sub(l.t0)), int64(end.Sub(l.t0))
	l.mu.Unlock()
	return id
}

// busy sums the durations of closed spans named name.
func (l *spanLog) busy(name string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.index[name]
	if !ok {
		return 0
	}
	var sum int64
	for _, s := range l.spans {
		if s.name == n && s.end >= 0 {
			sum += s.end - s.start
		}
	}
	return time.Duration(sum)
}

// emptySpanNS measures the busy time, in ns, one span records around no
// work: the part of begin and end that falls between their two clock reads.
func emptySpanNS() float64 {
	const n = 1 << 16
	l := newSpanLog("calibration")
	for i := 0; i < n; i++ {
		l.end(l.begin("empty", -1))
	}
	return float64(l.busy("empty")) / n
}

func (l *spanLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeTo writes the spans to dir/<workload>.spans.tsv.gz, replacing the
// previous traced run's file for that workload.
func (l *spanLog) writeTo(dir, workload string) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, workload+".spans.tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriterSize(zw, 1<<16)
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(w, "# run %s\n# id\tparent\tname\tstart_ns\tend_ns\n", l.runID)
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, l.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return "", 0, err
	}
	if err := zw.Close(); err != nil {
		return "", 0, err
	}
	return path, len(l.spans), f.Close()
}
