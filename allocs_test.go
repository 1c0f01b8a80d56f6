package asyncexc_test

import (
	"errors"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// Allocation ceilings for the hottest scheduler and combinator
// workloads. The per-RT free lists (bind/catch frames, stack segments)
// keep frames off the heap, and the node grammar is pointer-shaped: a
// Bind, Return, Delay or primitive costs the one node it builds, a
// typed value stays unboxed from Return to the continuation that reads
// it, and Unit-valued primitives share one return node. A regression
// that starts boxing or allocating per step fails here long before it
// shows up in wall-clock numbers.

// runAllocsPerOp runs prog (iters operations) under
// testing.AllocsPerRun and returns average heap allocations per
// operation.
func runAllocsPerOp(t *testing.T, iters int, mk func(iters int) core.IO[core.Unit]) float64 {
	t.Helper()
	prog := mk(iters)
	avg := testing.AllocsPerRun(3, func() {
		if _, e, err := core.RunWith(core.DefaultOptions(), prog); e != nil || err != nil {
			t.Fatalf("run failed: %v %v", e, err)
		}
	})
	return avg / float64(iters)
}

// TestStepAllocCeiling bounds allocations for the BenchmarkStep
// workload (a pure Return chain): currently 2 allocs per iteration,
// ReplicateM_'s >> node and Delay node; the Unit return is zero-sized
// and the pooled bind frames contribute none.
func TestStepAllocCeiling(t *testing.T) {
	const iters = 20000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.ReplicateM_(n, core.Return(core.UnitValue))
	})
	t.Logf("%.2f allocs/op", perOp)
	if perOp > 3.5 {
		t.Fatalf("Step workload allocates %.2f/op, ceiling 3.5", perOp)
	}
}

// TestMVarPingPongAllocCeiling bounds allocations for the
// BenchmarkMVarPingPong workload (a two-thread handoff cycle):
// currently 11 allocs per round trip.
func TestMVarPingPongAllocCeiling(t *testing.T) {
	const iters = 10000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
			return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
				echo := core.ReplicateM_(n, core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] {
					return core.Put(pong, v)
				}))
				drive := core.ReplicateM_(n, core.Then(core.Put(ping, 1), core.Void(core.Take(pong))))
				return core.Then(core.Void(core.Fork(echo)), drive)
			})
		})
	})
	t.Logf("%.2f allocs/op", perOp)
	if perOp > 11.5 {
		t.Fatalf("MVar ping-pong workload allocates %.2f/op, ceiling 11.5", perOp)
	}
}

// bindChain is k nested Binds over int64 values far above 255, so a
// boxed value would allocate (Go caches only single-byte values).
func bindChain(x int64, k int) core.IO[int64] {
	if k == 0 {
		return core.Return(x)
	}
	return core.Bind(core.Return(x), func(v int64) core.IO[int64] {
		return bindChain(v*31+int64(k), k-1)
	})
}

// TestBindChainAllocCeiling bounds one Bind over a typed value:
// currently 3 allocs, the user's closure, the >>= node and the typed
// return node, with no boxing of the int64 on its way to the
// continuation.
func TestBindChainAllocCeiling(t *testing.T) {
	const iters = 20000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.Void(bindChain(1<<40, n))
	})
	t.Logf("%.2f allocs/op", perOp)
	if perOp > 3.5 {
		t.Fatalf("Bind chain allocates %.2f/op, ceiling 3.5", perOp)
	}
}

// TestTimeoutAllocCeiling bounds §7.3's Timeout around an action that
// finishes at once (an MVar, two forked children racing, one
// throwTo): currently 59 allocs.
func TestTimeoutAllocCeiling(t *testing.T) {
	const iters = 2000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.ReplicateM_(n, core.Void(core.Timeout(time.Hour, core.Return(1))))
	})
	t.Logf("%.2f allocs/op", perOp)
	if perOp > 60 {
		t.Fatalf("Timeout allocates %.2f/op, ceiling 60", perOp)
	}
}

// TestBracketAllocCeiling bounds §7.1's Bracket around an MVar
// acquire and release: currently 14 allocs.
func TestBracketAllocCeiling(t *testing.T) {
	const iters = 5000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.Bind(core.NewMVar(0), func(m core.MVar[int]) core.IO[core.Unit] {
			return core.ReplicateM_(n, core.Void(core.Bracket(core.Take(m),
				func(v int) core.IO[int] { return core.Return(v + 1) },
				func(v int) core.IO[core.Unit] { return core.Put(m, v+1) })))
		})
	})
	t.Logf("%.2f allocs/op", perOp)
	if perOp > 14.5 {
		t.Fatalf("Bracket allocates %.2f/op, ceiling 14.5", perOp)
	}
}

// TestHotLoopStepAllocCeiling bounds the parallel engine's hot loop:
// workers spinning on a cyclic Forever node under the fuel limit, the
// same workload as the H1 empty-loop row. The workload itself
// allocates nothing, so per-step allocations measure the scheduler
// loop — the atomic stop-flag check, lock-free mailbox probe, batched
// clock/stats machinery — which must stay allocation-free: the fixed
// setup cost (engine, shards, rings) amortized over the run is all
// the budget there is.
func TestHotLoopStepAllocCeiling(t *testing.T) {
	const steps = 40000
	const shards = 2
	var total uint64
	avg := testing.AllocsPerRun(3, func() {
		opts := core.ParallelOptions(shards)
		opts.TimeSlice = 50
		opts.MaxSteps = steps
		sys := core.NewSystem(opts)
		spin := core.Forever(core.Return(core.UnitValue))
		prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
			setup := core.Return(core.UnitValue)
			for w := 0; w < shards; w++ {
				setup = core.Then(setup, core.Void(core.ForkOn(w, spin, "")))
			}
			return core.Then(setup, core.Void(core.Take(never)))
		})
		_, _, err := core.RunSystem(sys, prog)
		if !errors.Is(err, sched.ErrFuelExhausted) {
			t.Fatalf("run ended unexpectedly: %v", err)
		}
		total += sys.Stats().Steps
	})
	perStep := avg / (float64(total) / 4) // AllocsPerRun runs f 3+1 times
	if perStep > 0.05 {
		t.Fatalf("parallel hot loop allocates %.4f/step, ceiling 0.05", perStep)
	}
}
