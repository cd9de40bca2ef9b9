package core

import (
	"context"
	"sync"

	"pathcomplete/internal/pathexpr"
)

// CompleteBatchContext completes several expressions concurrently.
// The Completer is immutable, so the searches are independent; workers
// bounds the parallelism (values below 1 mean one worker). Results and
// errors are returned positionally: for each i exactly one of
// results[i], errs[i] is non-nil. Every search observes the context's
// cancellation and deadline (see CompleteContext), so one call can
// bound the wall-clock time of the whole batch while each member
// degrades to its best-so-far answer.
func (c *Completer) CompleteBatchContext(ctx context.Context, exprs []pathexpr.Expr, workers int) (results []*Result, errs []error) {
	results = make([]*Result, len(exprs))
	errs = make([]error, len(exprs))
	if workers < 1 {
		workers = 1
	}
	if workers > len(exprs) {
		workers = len(exprs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = c.CompleteContext(ctx, exprs[i])
			}
		}()
	}
	for i := range exprs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errs
}
