package ordered

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits for the goroutine count to fall back to baseline and fails
// the test if it does not.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d > %d\n%s", g, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestRunOrderedDelivery: items finish in random order but are emitted in
// index order, exactly once each, at any worker count — including more
// workers than items and no items at all.
func TestRunOrderedDelivery(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 8, n + 3} {
		for _, items := range []int{0, n} {
			t.Run(fmt.Sprintf("w%d/n%d", workers, items), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				delay := make([]time.Duration, items)
				rng := rand.New(rand.NewSource(int64(workers)))
				for i := range delay {
					delay[i] = time.Duration(rng.Intn(2000)) * time.Microsecond
				}
				var lanes sync.Map
				var got []int
				err := Run(context.Background(), items, workers, func(i, lane int) (int, error) {
					if lane < 0 || lane >= max(workers, 1) {
						return 0, fmt.Errorf("lane %d out of range", lane)
					}
					lanes.Store(lane, true)
					time.Sleep(delay[i])
					return i * i, nil
				}, func(i, v int) {
					if v != i*i {
						t.Errorf("emit(%d, %d): value belongs to another item", i, v)
					}
					got = append(got, i)
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != items {
					t.Fatalf("emitted %d items, want %d", len(got), items)
				}
				for i, idx := range got {
					if idx != i {
						t.Fatalf("emit %d carried index %d", i, idx)
					}
				}
				settle(t, baseline)
			})
		}
	}
}

// TestRunSequentialInline: workers <= 1 runs on the caller's goroutine, so
// work and emit interleave strictly item by item.
func TestRunSequentialInline(t *testing.T) {
	var trace []string
	err := Run(context.Background(), 3, 1, func(i, lane int) (int, error) {
		trace = append(trace, fmt.Sprintf("w%d/%d", i, lane))
		return i, nil
	}, func(i, _ int) {
		trace = append(trace, fmt.Sprintf("e%d", i))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(trace), "[w0/0 e0 w1/0 e1 w2/0 e2]"; got != want {
		t.Fatalf("sequential order %s, want %s", got, want)
	}
}

// TestRunStopsAfterFailure: every item from k on fails, and item k fails
// last in wall time. The returned error must still be item k's at every
// worker count, every item below k must be emitted, and no worker may claim
// past its first failure — work runs for at most k+workers items.
func TestRunStopsAfterFailure(t *testing.T) {
	const n, k = 200, 37
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var ran atomic.Int64
			var emitted []int
			err := Run(context.Background(), n, workers, func(i, _ int) (int, error) {
				ran.Add(1)
				switch {
				case i == k:
					time.Sleep(20 * time.Millisecond)
					return 0, fmt.Errorf("item %d", i)
				case i > k:
					return 0, fmt.Errorf("item %d", i)
				}
				return i, nil
			}, func(i, _ int) { emitted = append(emitted, i) })
			if err == nil || err.Error() != fmt.Sprintf("item %d", k) {
				t.Fatalf("err = %v, want item %d's error", err, k)
			}
			if r := ran.Load(); r > int64(k+workers) {
				t.Fatalf("work ran for %d items after item %d failed, want <= %d", r, k, k+workers)
			}
			if len(emitted) != k {
				t.Fatalf("emitted %d items, want the %d below the failure", len(emitted), k)
			}
			settle(t, baseline)
		})
	}
}

// TestRunEmitCancels: an emit that cancels the context sees no further
// emit, and Run reports an error wrapping context.Canceled without leaving
// a goroutine behind.
func TestRunEmitCancels(t *testing.T) {
	const n, cancelAt = 100, 10
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var after int
			err := Run(ctx, n, workers, func(i, _ int) (int, error) {
				time.Sleep(100 * time.Microsecond)
				return i, nil
			}, func(i, _ int) {
				if i > cancelAt {
					after++
				}
				if i == cancelAt {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if after != 0 {
				t.Fatalf("%d emits after the cancelling one", after)
			}
			settle(t, baseline)
		})
	}
}

// TestRunDeadContext: a context dead before the call runs no work at all.
func TestRunDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Run(ctx, 10, workers, func(i, _ int) (int, error) {
			ran.Add(1)
			return i, nil
		}, func(int, int) { t.Error("emit under a dead context") })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: work ran %d times under a dead context", workers, ran.Load())
		}
	}
}
