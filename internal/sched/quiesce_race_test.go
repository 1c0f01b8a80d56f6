package sched

import (
	"runtime"
	"testing"

	"asyncexc/internal/exc"
)

// TestQuiescenceVsCompletions races goroutine completions against the
// engine's quiescence check at 2 shards. Each round forks awaiters
// whose external work completes on its own goroutine, half through
// Await (the completion is a msgResume) and half through LaunchPromise
// (an External that settles the promise, whose awaiter on the other
// shard then gets a msgResume), while main blocks collecting their
// results. Both shards go idle while the completions are in flight. A
// quiescence check that missed a completion applied between its
// counter reads would raise BlockedIndefinitely in main while its wake
// is still on the way. Run with -race.
func TestQuiescenceVsCompletions(t *testing.T) {
	const rounds, width = 300, 8
	for r := 0; r < rounds; r++ {
		rt := NewRT(parOpts(2))
		e := rt.eng
		// Each completion waits until both shards are inside the idle
		// path, so it lands while the last idle shard is checking for
		// quiescence.
		complete := func(i int) func(func(any, exc.Exception)) func() {
			return func(done func(any, exc.Exception)) func() {
				go func() {
					for e.idlers.Load() < 2 && !e.stopped.Load() {
						runtime.Gosched()
					}
					done(i, nil)
				}()
				return nil
			}
		}
		main := Bind(NewEmptyMVar(), func(a any) Node {
			results := a.(*MVar)
			var prog Node = ReturnUnit()
			for i := 0; i < width; i++ {
				wait := Await("completion", complete(i))
				if i%2 == 1 {
					wait = Bind(LaunchPromise("completion", complete(i), nil), func(p any) Node {
						return AwaitPromise(p.(*Promise))
					})
				}
				prog = Then(prog, Fork(Bind(wait, func(v any) Node { return PutMVar(results, v) })))
			}
			var collect func(n, sum int) Node
			collect = func(n, sum int) Node {
				if n == 0 {
					return Return(sum)
				}
				return Bind(TakeMVar(results), func(v any) Node { return collect(n-1, sum+v.(int)) })
			}
			return Then(prog, collect(width, 0))
		})
		res, err := rt.RunMain(main)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if res.Exc != nil {
			t.Fatalf("round %d: main died with %v while completions were in flight", r, res.Exc)
		}
		if want := width * (width - 1) / 2; res.Value != want {
			t.Fatalf("round %d: sum %v, want %d", r, res.Value, want)
		}
	}
}

// TestQuiescentSnapshot pins the quiescence check's snapshot at the
// counter level, where the race is cheap to provoke. Reading
// outstandingIO first is not enough on its own: without the idleExits
// check this test fails within milliseconds. A 2-shard engine
// runs no workers: this goroutine plays shard 0, idle for good, and
// asks quiescent in a loop; a second goroutine plays shard 1, looping
// an awaiter through the real completion path — the completion is
// sent, shard 1 leaves idle, applies the msgResume, pops the thread,
// and the thread awaits again before shard 1 goes idle. At every
// instant a completion is outstanding, a message is in flight, a
// thread is queued or shard 1 is busy, so quiescent must never report
// a quiescent engine with no outstanding I/O.
func TestQuiescentSnapshot(t *testing.T) {
	rt := NewRT(Options{TimeSlice: 50, Shards: 2})
	e := rt.eng
	s1 := e.shards[1]
	th := s1.newThread(ReturnUnit(), "awaiter", Unmasked)
	th.owner.Store(s1)
	th.parkSeq = 1
	th.status = statusParked
	th.park = parkInfo{kind: parkAwait}
	e.outstandingIO.Store(1)
	e.idlers.Store(2) // both shards idle
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100_000; i++ {
			e.send(s1, shardMsg{kind: msgResume, t: th, seq: th.parkSeq, v: &awaitDone{v: i}})
			e.leaveIdle()
			s1.processMailbox()
			if s1.popLocal() != th {
				t.Error("the completion did not queue the awaiter")
				return
			}
			th.parkSeq++
			th.status = statusParked
			th.park = parkInfo{kind: parkAwait}
			e.outstandingIO.Add(1)
			e.idlers.Add(1)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if io, ok := e.quiescent(2); ok && io == 0 {
			t.Error("quiescent engine reported while a completion was in flight")
			<-done
			return
		}
	}
}
