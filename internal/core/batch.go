package core

import (
	"context"
	"errors"
	"fmt"
)

// SolveBatch solves many C-Extension instances over one shared bounded
// worker pool, amortizing scheduling across the whole workload: whole
// instances fan out first, and each instance's parallel stages (Hasse
// subtrees, ILP blocks, partition coloring) reuse any pool capacity the
// instance mix leaves free. opt applies to every instance; opt.Workers is
// the parallelism target for the whole batch, not for one instance (the
// pool's inline-fallback rule means it is approximate, not a hard CPU cap
// — see internal/sched).
//
// The returned slice is positionally aligned with inputs. Instance
// failures are isolated: a failing instance leaves a nil Result and
// contributes its error — annotated with the instance index — to the
// joined error; the remaining instances still solve. Cancellation is
// checked at instance boundaries and inside each instance at the solver's
// phase boundaries: once ctx is done no new instance starts, unstarted
// instances report ctx.Err(), and in-flight instances stop within one
// phase. Each completed instance's output is byte-identical to a
// standalone Solve(inputs[i], opt).
func SolveBatch(ctx context.Context, inputs []Input, opt Options) ([]*Result, error) {
	pool := PoolFor(opt)
	results := make([]*Result, len(inputs))
	errs := make([]error, len(inputs))
	pool.ForEach(len(inputs), func(i int) {
		if err := ctxErr(ctx); err != nil {
			errs[i] = fmt.Errorf("core: batch instance %d: %w", i, err)
			return
		}
		res, err := solveOnPool(ctx, inputs[i], opt, pool)
		if err != nil {
			errs[i] = fmt.Errorf("core: batch instance %d: %w", i, err)
			return
		}
		results[i] = res
	})
	return results, errors.Join(errs...)
}
