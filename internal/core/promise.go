package core

import (
	"sync/atomic"

	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// This file is the typed surface of first-class promises
// (docs/PROMISES.md): a write-once result cell the scheduler knows
// about, following Ahman & Pretnar's recipe of separating *invoking*
// an asynchronous operation from *receiving* its result. A Promise is
// settled exactly once — resolved with a value, rejected with an
// exception, or cancelled — and Await parks interruptibly at the
// paper's §5.3 delivery points, exactly like Take on an MVar.
//
// The combinators below (AwaitEither, AwaitAll, Speculate) are built
// on settlement chains rather than the §7.2 kill-and-respawn pattern:
// resolve-once IS first-winner selection, so racing N sources into a
// derived promise needs no ThrowTo at all on the happy path.

// Promise is a typed write-once result cell. The zero value is not
// useful; construct with NewPromise or Async.
type Promise[A any] struct{ p *sched.Promise }

// Raw exposes the untyped promise; used by substrates, not
// applications.
func (p Promise[A]) Raw() *sched.Promise { return p.p }

// PromiseFromRaw wraps an untyped promise; the caller asserts the
// element type.
func PromiseFromRaw[A any](raw *sched.Promise) Promise[A] { return Promise[A]{raw} }

// NewPromise creates a fresh pending promise. The name labels traces
// (the promise's obs span carries it as the invoke end of the
// invoke → resolve → await chain).
func NewPromise[A any](name string) IO[Promise[A]] {
	return Map(FromNode[*sched.Promise](sched.NewPromiseNode(name)), PromiseFromRaw[A])
}

// Resolve settles p with value v. Returns whether this call won the
// resolve-once race: false means p had already been resolved,
// rejected or cancelled, and v was discarded.
func Resolve[A any](p Promise[A], v A) IO[bool] {
	return FromNode[bool](sched.ResolvePromise(p.p, v))
}

// Reject settles p with an exception; awaiters see it raised at their
// Await site. Returns whether this call won the settle race.
func Reject[A any](p Promise[A], e Exception) IO[bool] {
	return FromNode[bool](sched.ResolvePromiseExc(p.p, e))
}

// Cancel cancels p: awaiters observe PromiseCancelled raised at their
// Await site, the producer registered by Async (if any, and not the
// caller itself) receives a PromiseCancelled asynchronous exception,
// and any external-cancellation hook (iomgr: close the socket) runs.
// Cancelling an already-settled promise is a no-op returning false —
// which is exactly why cancelling the *winner* of a speculative race
// is harmless.
func Cancel[A any](p Promise[A]) IO[bool] {
	return FromNode[bool](sched.CancelPromise(p.p))
}

// Await blocks until p settles: a resolved promise's value is
// returned; a rejection or cancellation is raised at the await site.
// Awaiting a promise that is already settled returns immediately and
// is NOT an interruption point (§5.3: an operation whose resource is
// "always available" cannot be interrupted); awaiting a pending
// promise is interruptible right up until the settlement commits the
// wakeup, exactly like Take.
func Await[A any](p Promise[A]) IO[A] {
	return FromNode[A](sched.AwaitPromise(p.p))
}

// TryAwait is the non-waiting probe: Just the value when p is
// resolved, Nothing while pending. A rejection or cancellation is
// raised, as by Await.
func TryAwait[A any](p Promise[A]) IO[Maybe[A]] {
	return Map(FromNode[sched.TryResult](sched.TryAwaitPromise(p.p)), maybeOf[A])
}

// Async runs m in a fresh thread and returns a promise of its result:
// the thread's exit settles the promise — a normal return resolves
// it, an unwound exception rejects it. The promise is the producer
// thread's top-level handler, installed by the runtime at spawn, so
// there is no catch-install window at all: the child is a registered
// producer from the instant it exists, and Cancel tears it down with
// a PromiseCancelled asynchronous exception — the §7.2 kill idiom,
// aimed through the promise rather than a raw ThreadID. The body runs
// unmasked (the fork inherits the caller's mask per the revised Fork
// rule; the Unblock wrapper restores the Async contract).
func Async[A any](name string, m IO[A]) IO[Promise[A]] {
	return Map(FromNode[*sched.Promise](sched.AsyncNode(name, sched.Unblock(m.node))), PromiseFromRaw[A])
}

// AwaitEither waits for the first of two promises to settle, without
// killing anything: both sources are chained into a derived promise,
// and resolve-once makes the first settlement win. A losing source
// that settles later is simply ignored (its own awaiters, if any, are
// unaffected). The first source to be rejected or cancelled loses the
// race only if the other has already resolved; otherwise its
// exception is what the caller sees.
func AwaitEither[A, B any](pa Promise[A], pb Promise[B]) IO[Either[A, B]] {
	return Bind(NewPromise[Either[A, B]]("awaitEither"), func(d Promise[Either[A, B]]) IO[Either[A, B]] {
		chainInto := func(src *sched.Promise, wrap func(any) Either[A, B]) IO[Unit] {
			return FromNode[Unit](sched.ChainPromise(src, func(rt *sched.RT, v any, e exc.Exception, cancelled bool) {
				if cancelled || e != nil {
					rt.SettlePromise(d.p, nil, e, cancelled)
					return
				}
				rt.SettlePromise(d.p, wrap(v), nil, false)
			}))
		}
		return Then(chainInto(pa.p, func(v any) Either[A, B] { return MkLeft[A, B](v.(A)) }),
			Then(chainInto(pb.p, func(v any) Either[A, B] { return MkRight[A, B](v.(B)) }),
				Await(d)))
	})
}

// AwaitAll waits for every promise in ps to resolve, returning the
// values in order. The first rejection or cancellation among the
// sources settles the result immediately with that exception (the
// remaining sources are left running — pair with Cancel in a Finally
// for teardown; Speculate shows the pattern).
//
// Settlement chains run concurrently on whichever shards settle the
// sources, so completion is tracked with an atomic counter and each
// chain writes only its own index of the results slice: the chain
// that performs the final decrement observes all earlier writes (the
// atomic is the synchronization edge) and resolves the derived
// promise.
func AwaitAll[A any](ps []Promise[A]) IO[[]A] {
	return Bind(NewPromise[[]A]("awaitAll"), func(d Promise[[]A]) IO[[]A] {
		if len(ps) == 0 {
			return Then(Void(Resolve(d, []A{})), Await(d))
		}
		results := make([]A, len(ps))
		var remaining atomic.Int64
		remaining.Store(int64(len(ps)))
		chain := func(i int, src *sched.Promise) IO[Unit] {
			return FromNode[Unit](sched.ChainPromise(src, func(rt *sched.RT, v any, e exc.Exception, cancelled bool) {
				if cancelled || e != nil {
					rt.SettlePromise(d.p, nil, e, cancelled)
					return
				}
				results[i] = v.(A)
				if remaining.Add(-1) == 0 {
					rt.SettlePromise(d.p, results, nil, false)
				}
			}))
		}
		attach := Return(UnitValue)
		for i := len(ps) - 1; i >= 0; i-- {
			attach = Then(chain(i, ps[i].p), attach)
		}
		return Then(attach, Await(d))
	})
}

// Speculate races the alternatives and returns the first result,
// cancelling the losers — speculative evaluation without the §7.2
// kill-and-respawn machinery. All alternatives produce one shared
// speculation promise: resolve-once IS winner selection, and the
// first settlement reaps the losing producers with PromiseCancelled.
// No derived promise, no ThreadKilled, no kill-and-respawn relay. If
// the caller itself receives an asynchronous exception while waiting,
// the speculation is cancelled as it is torn down — every producer is
// reaped, no thread leaks. Alternatives run unmasked regardless of
// the caller's mask, as with Async.
//
// The first alternative to *fail* settles the race with its
// exception; alternatives that fail after a winner resolved are
// ignored. Callers wanting first-success-or-all-failed semantics
// should wrap alternatives in Try.
func Speculate[A any](name string, alternatives ...IO[A]) IO[A] {
	if len(alternatives) == 0 {
		return ThrowErrorCall[A]("Speculate: no alternatives")
	}
	bodies := make([]sched.Node, len(alternatives))
	for i, alt := range alternatives {
		bodies[i] = sched.Unblock(alt.node)
	}
	return FromNode[A](sched.SpeculateNode(name, bodies))
}
