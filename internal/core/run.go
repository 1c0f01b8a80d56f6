package core

import (
	"fmt"

	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// Options configures a runtime; it is the scheduler's option set
// re-exported for applications.
type Options = sched.Options

// SimSource is the deterministic-simulation decision seam re-exported
// for callers wiring Options.Sim (see internal/sim and
// docs/SIMULATION.md).
type SimSource = sched.SimSource

// DefaultOptions returns the paper defaults: preemptive scheduling
// with 50-step slices, virtual clock, asynchronous throwTo, deadlock
// detection enabled.
func DefaultOptions() Options { return sched.DefaultOptions() }

// Re-exported clock modes.
const (
	// VirtualClock advances time only when every thread is blocked;
	// deterministic and instantaneous (the default).
	VirtualClock = sched.VirtualClock
	// RealClock uses wall time; required for real I/O via iomgr.
	RealClock = sched.RealClock
)

// RealTimeOptions returns defaults suitable for programs doing real
// I/O through the I/O manager.
func RealTimeOptions() Options {
	opts := sched.DefaultOptions()
	opts.Clock = sched.RealClock
	return opts
}

// ParallelOptions returns defaults with the runtime sharded across the
// given number of shards (M:N work-stealing execution; see
// docs/PARALLEL.md). shards <= 1 is the default single shard, driven
// by the goroutine that runs the system.
func ParallelOptions(shards int) Options {
	opts := sched.DefaultOptions()
	opts.Shards = shards
	return opts
}

// RunParallel performs m on a fresh runtime sharded across the given
// number of shards. Delivery semantics are identical at every shard
// count; with more than one shard the scheduling order is
// nondeterministic.
func RunParallel[A any](shards int, m IO[A]) (A, Exception, error) {
	return RunSystem(NewSystem(ParallelOptions(shards)), m)
}

// System is a runtime instance plus the typed entry points. A System
// performs one main action; create a fresh System per run.
type System struct {
	rt *sched.RT
}

// NewSystem creates a runtime with the given options.
func NewSystem(opts Options) *System { return &System{rt: sched.NewRT(opts)} }

// RT exposes the underlying scheduler (tracing, statistics, input
// injection); substrates use it, applications rarely need it.
func (s *System) RT() *sched.RT { return s.rt }

// Output returns the console transcript produced so far.
func (s *System) Output() string { return s.rt.Output() }

// Stats returns scheduler counters, aggregated across shards.
func (s *System) Stats() sched.Stats { return s.rt.Stats() }

// ShardStats returns per-shard scheduler counters, one entry per shard.
func (s *System) ShardStats() []sched.Stats { return s.rt.ShardStats() }

// Shards returns the number of execution shards the system runs on.
func (s *System) Shards() int { return s.rt.Shards() }

// KillMain asynchronously sends ThreadKilled to the system's main
// thread from ordinary Go code — the environment-interrupt conversion
// of §5, used to shut down long-running systems such as servers. Safe
// to call from any goroutine while the system runs.
func (s *System) KillMain() {
	s.rt.External(func(rt *sched.RT) { rt.InterruptMain(exc.ThreadKilled{}) })
}

// InterruptMain delivers an arbitrary exception to the main thread
// from ordinary Go code (e.g. converting SIGINT into UserInterrupt).
func (s *System) InterruptMain(e Exception) {
	s.rt.External(func(rt *sched.RT) { rt.InterruptMain(e) })
}

// Run performs the action as the system's main thread and returns its
// result. A non-nil Exception is the main thread's uncaught exception;
// a non-nil error reports a runtime-level failure (fuel exhausted, or
// deadlock with detection disabled).
func RunSystem[A any](s *System, m IO[A]) (A, Exception, error) {
	var zero A
	res, err := s.rt.RunMain(m.Node())
	if err != nil {
		return zero, nil, err
	}
	if res.Exc != nil {
		return zero, res.Exc, nil
	}
	v, ok := res.Value.(A)
	if !ok {
		return zero, nil, fmt.Errorf("core: main thread returned %T, want %T", res.Value, zero)
	}
	return v, nil, nil
}

// Run performs m on a fresh default runtime.
func Run[A any](m IO[A]) (A, Exception, error) {
	return RunSystem(NewSystem(DefaultOptions()), m)
}

// RunWith performs m on a fresh runtime with the given options.
func RunWith[A any](opts Options, m IO[A]) (A, Exception, error) {
	return RunSystem(NewSystem(opts), m)
}

// MustRun performs m and panics on any exception or runtime error;
// convenient in examples and tests of the happy path.
func MustRun[A any](m IO[A]) A {
	v, e, err := Run(m)
	if err != nil {
		panic(err)
	}
	if e != nil {
		panic(exc.AsError(e))
	}
	return v
}
