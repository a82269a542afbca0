// Package ordered is the repository's one ordered-delivery executor: a
// fixed pool of workers computes indexed items out of order, and the
// caller's goroutine receives the results strictly in index order. Probing
// campaigns, checkpoint replay and the fleet's lease merge all run on it, so
// their output streams are byte-identical at any worker count.
//
// An item is a whole unit of work (a campaign chunk, a tracefile chunk),
// never a single trace: the executor costs one channel and one emit call
// per item, nothing per trace.
package ordered

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run computes work(i, lane) for every i in [0, n) and hands each result to
// emit(i, v) in index order, on the caller's goroutine. lane in
// [0, workers) names the worker that ran the item, so work may keep
// per-lane scratch without locking.
//
// Items are claimed in index order. With workers <= 1 (or n <= 1) Run
// works inline on the caller's goroutine and starts none.
//
// Once any item fails, no new item is claimed; items already claimed finish,
// every item below the lowest failing index is still emitted, and Run
// returns the error of the lowest failing index — the same error at any
// worker count. Delivery also stops as soon as ctx dies, including when
// emit itself cancels it; Run then returns ctx.Err() unwrapped, so callers
// can label the interruption. Run returns only after every worker it
// started has exited.
func Run[T any](ctx context.Context, n, workers int, work func(i, lane int) (T, error), emit func(i int, v T)) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := work(i, 0)
			if err != nil {
				return err
			}
			emit(i, v)
		}
		return nil
	}

	type result struct {
		v   T
		err error
	}
	// One single-use slot per item, buffered so a worker never blocks on a
	// result the caller has stopped waiting for.
	slots := make([]chan result, n)
	for i := range slots {
		slots[i] = make(chan result, 1)
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := work(i, lane)
				if err != nil {
					stop.Store(true)
				}
				slots[i] <- result{v, err}
			}
		}()
	}
	// Returning early needs no signal to the workers: a failure already
	// stopped claims, and a dead ctx stops them at their next claim.
	defer wg.Wait()

	for i := 0; i < n; i++ {
		var r result
		select {
		case r = <-slots[i]:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.err != nil {
			return r.err
		}
		emit(i, r.v)
	}
	return nil
}
