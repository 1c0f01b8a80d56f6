package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/broker"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/resilience"
	"asyncexc/internal/sched"
)

// The cost ladder: one small single-layer program per rung, each run
// through core.RunSystem at 1 and 2 shards and reported as time, Go
// allocations and interpreter steps per op. A rung's figures isolate
// one layer, so an end-to-end regression can be pinned to the rung
// that moved. Rungs run in every traced run; README.md lists which
// workload each one explains.

// rungProgram builds a rung's program for n ops. mark must be called
// (as IO) right before the first op and right after the last, so that
// set-up is excluded from the figures.
type rungProgram func(n int, mark core.IO[core.Unit]) core.IO[core.Unit]

type rung struct {
	name string
	unit string // "ns" or "us": the unit of the time figure
	// opts builds the runtime options at the given shard count.
	opts func(shards int) core.Options
	prog rungProgram
	// shards lists the shard counts the rung runs at.
	shards []int
	// serve, when set, replaces prog: the rung needs a live server.
	serve func(shards, n int) (trial, error)
}

// trial is one measured run of a rung.
type trial struct {
	ns, allocs, steps float64 // per op
	obsEvents         float64 // per op, for rungs with an observer
}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runTrial runs prog for n ops on a fresh system.
func runTrial(opts core.Options, prog rungProgram, n int) (trial, error) {
	var marks [2]time.Time
	var allocs [2]uint64
	k := 0
	mark := core.Lift(func() core.Unit {
		if k < 2 {
			allocs[k] = heapAllocs()
			marks[k] = time.Now()
		}
		k++
		return core.UnitValue
	})
	sys := core.NewSystem(opts)
	_, e, err := core.RunSystem(sys, prog(n, mark))
	if err != nil && !errors.Is(err, sched.ErrFuelExhausted) {
		return trial{}, err
	}
	if e != nil {
		return trial{}, exc2err(e)
	}
	if k < 2 && !errors.Is(err, sched.ErrFuelExhausted) {
		return trial{}, fmt.Errorf("rung did not mark its end")
	}
	if k < 2 { // fuel-bounded rung: the run ends at the fuel limit
		allocs[1], marks[1] = heapAllocs(), time.Now()
	}
	steps := float64(sys.Stats().Steps)
	return trial{
		ns:     float64(marks[1].Sub(marks[0]).Nanoseconds()) / float64(n),
		allocs: float64(allocs[1]-allocs[0]) / float64(n),
		steps:  steps / float64(n),
	}, nil
}

func exc2err(e core.Exception) error { return fmt.Errorf("uncaught %s", e.String()) }

func virtualOpts(shards int) core.Options { return core.ParallelOptions(shards) }

func realOpts(shards int) core.Options {
	o := core.RealTimeOptions()
	o.Shards = shards
	return o
}

var unitIO = core.Return(core.UnitValue)

// ladder is the rung list, bottom to top.
var ladder = []rung{
	{name: "sched.step", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: stepRung},
	{name: "core.bind", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: bindRung},
	{name: "sched.mvar_handoff", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: handoffRung(-1)},
	{name: "sched.mvar_handoff_xshard", unit: "ns", opts: virtualOpts, shards: []int{2}, prog: handoffRung(1)},
	{name: "sched.throwto", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: throwToRung},
	{name: "core.timeout", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: repeatRung(func() core.IO[core.Unit] {
		return core.Void(core.Timeout(time.Hour, core.Return(1)))
	})},
	{name: "core.bracket", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: bracketRung},
	{name: "resilience.deadline", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: repeatRung(func() core.IO[core.Unit] {
		return core.Void(resilience.WithDeadline(resilience.NoDeadline(), time.Hour,
			func(resilience.Deadline) core.IO[int] { return core.Return(1) }))
	})},
	{name: "sched.promise_await", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: awaitRung},
	{name: "sched.speculate3", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: repeatRung(func() core.IO[core.Unit] {
		alts := make([]core.IO[int], len(httpSpecPads))
		for i, pad := range httpSpecPads {
			alts[i] = core.Then(core.ReplicateM_(pad, unitIO), core.Return(1))
		}
		return core.Void(core.Speculate("rung", alts...))
	})},
	{name: "actor.send_handle", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: actorRung},
	{name: "broker.fanout", unit: "ns", opts: virtualOpts, shards: []int{1, 2}, prog: brokerRung},
	{name: "iomgr.roundtrip", unit: "us", opts: realOpts, shards: []int{1, 2}, prog: repeatRung(func() core.IO[core.Unit] {
		return core.Void(iomgr.Do("nop", func() (int, error) { return 1, nil }))
	})},
	{name: "httpd.get", unit: "us", shards: []int{1, 2}, serve: httpRungTrial},
}

// stepRung is a bare interpreter step: one thread spinning on a cyclic
// Return node (no allocation per iteration), ended by the fuel limit.
func stepRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Then(mark, core.Forever(core.Return(core.UnitValue)))
}

func bindRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	const k = 1000
	return core.Seq(mark, core.ReplicateM_((n+k-1)/k, core.Void(chain(0, k))), mark)
}

// repeatRung runs op n times in sequence.
func repeatRung(op func() core.IO[core.Unit]) rungProgram {
	return func(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
		return core.Seq(mark, core.ReplicateM_(n, core.Delay(op)), mark)
	}
}

// handoffRung is an MVar ping-pong: one op is a put to a parked
// partner and a take of its reply. shard >= 0 pins the partner there.
func handoffRung(shard int) rungProgram {
	return func(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
			return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
				partner := core.ReplicateM_(n, core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] {
					return core.Put(pong, v+1)
				}))
				fork := core.Void(core.Fork(partner))
				if shard >= 0 {
					fork = core.Void(core.ForkOn(shard, partner, "partner"))
				}
				round := core.Then(core.Put(ping, 1), core.Void(core.Take(pong)))
				return core.Seq(fork, mark, core.ReplicateM_(n, round), mark)
			})
		})
	}
}

// rungStop ends the throwTo rung's catcher loop.
var rungStop = exc.ErrorCall{Msg: "rung stop"}

// throwToRung: one op is a throwTo delivered to a catcher parked in an
// interruptible take, plus the catcher's ack.
func throwToRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(ack core.MVar[core.Unit]) core.IO[core.Unit] {
			one := core.Catch(core.Then(core.Unblock(core.Take(never)), core.Return(false)),
				func(e core.Exception) core.IO[bool] {
					return core.Then(core.Put(ack, core.UnitValue), core.Return(e.Eq(rungStop)))
				})
			var loop func() core.IO[core.Unit]
			loop = func() core.IO[core.Unit] {
				return core.Bind(one, func(stop bool) core.IO[core.Unit] {
					if stop {
						return unitIO
					}
					return core.Delay(loop)
				})
			}
			return core.Bind(core.Fork(core.Block(core.Delay(loop))), func(c core.ThreadID) core.IO[core.Unit] {
				round := core.Then(core.ThrowTo(c, exc.ThreadKilled{}), core.Take(ack))
				return core.Seq(mark, core.ReplicateM_(n, round), mark,
					core.ThrowTo(c, rungStop), core.Take(ack))
			})
		})
	})
}

func bracketRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Bind(core.NewMVar(0), func(m core.MVar[int]) core.IO[core.Unit] {
		op := core.Void(core.Bracket(core.Take(m),
			func(v int) core.IO[int] { return core.Return(v + 1) },
			func(v int) core.IO[core.Unit] { return core.Put(m, v+1) }))
		return core.Seq(mark, core.ReplicateM_(n, op), mark)
	})
}

// awaitRung: one op creates a promise, hands it to a resolver over an
// MVar and awaits it, so the await parks and the resolve wakes it.
func awaitRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[core.Promise[int]](), func(req core.MVar[core.Promise[int]]) core.IO[core.Unit] {
		resolver := core.ReplicateM_(n, core.Bind(core.Take(req), func(p core.Promise[int]) core.IO[core.Unit] {
			return core.Void(core.Resolve(p, 1))
		}))
		round := core.Bind(core.NewPromise[int]("rung"), func(p core.Promise[int]) core.IO[core.Unit] {
			return core.Then(core.Put(req, p), core.Void(core.Await(p)))
		})
		return core.Seq(core.Void(core.Fork(resolver)), mark, core.ReplicateM_(n, round), mark)
	})
}

// actorRung: one op is a send to an actor whose handler acks it.
func actorRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	sys := actor.NewSystem(nil)
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(ack core.MVar[core.Unit]) core.IO[core.Unit] {
		def := actor.Def[int]{Name: "rung", OnMessage: func(int) core.IO[core.Unit] { return core.Put(ack, core.UnitValue) }}
		return core.Bind(actor.Spawn(sys, def), func(ref actor.Ref[int]) core.IO[core.Unit] {
			return core.Seq(mark, core.ReplicateM_(n, core.Then(ref.Send(1), core.Take(ack))), mark)
		})
	})
}

// brokerRung: one op publishes one event to a topic with fanoutSubs
// subscribers and waits until every subscriber has handled it.
func brokerRung(n int, mark core.IO[core.Unit]) core.IO[core.Unit] {
	sys := actor.NewSystem(nil)
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(ack core.MVar[core.Unit]) core.IO[core.Unit] {
		onBatch := func(evs []broker.Event) core.IO[core.Unit] {
			return core.ReplicateM_(len(evs), core.Put(ack, core.UnitValue))
		}
		return core.Bind(broker.NewTopic(sys, "rung"), func(tp broker.Topic) core.IO[core.Unit] {
			wire := core.Void(core.Fork(core.Void(core.Try(tp.Spec.Start()))))
			for k := 0; k < fanoutSubs; k++ {
				id := fmt.Sprintf("rung-s%d", k)
				wire = core.Then(wire, core.Bind(broker.NewSubscriber(sys, id, onBatch), func(sb broker.Subscriber) core.IO[core.Unit] {
					return core.Then(core.Void(core.Fork(core.Void(core.Try(sb.Spec.Start())))),
						broker.Subscribe(tp.Ref, id, sb.Ref))
				}))
			}
			var seq uint64
			op := core.Delay(func() core.IO[core.Unit] {
				seq++
				return core.Then(broker.Publish(tp.Ref, []broker.Event{{Topic: "rung", Seq: seq}}),
					core.ReplicateM_(fanoutSubs, core.Take(ack)))
			})
			return core.Seq(wire, mark, core.ReplicateM_(n, op), mark)
		})
	})
}

// httpRungTrial serves n sequential GET /fast requests, one connection
// each, from a server deployed like the http-deadline workload's
// (observer and per-route deadlines, no tracing). Its allocations
// include the in-process client's.
func httpRungTrial(shards, n int) (trial, error) {
	ls, err := startServer(nil, shards)
	if err != nil {
		return trial{}, err
	}
	req := httpReq{route: "/fast", n: 7}
	var failure error
	a0, t0 := heapAllocs(), time.Now()
	for i := 0; i < n && failure == nil; i++ {
		got, _ := get(ls.addr, req, 0, 0)
		failure = checkResponse(req, got)
	}
	wall, allocs := time.Since(t0), heapAllocs()-a0
	if err := ls.stop(); err != nil && failure == nil {
		failure = err
	}
	if failure != nil {
		return trial{}, failure
	}
	return trial{
		ns:        float64(wall.Nanoseconds()) / float64(n),
		allocs:    float64(allocs) / float64(n),
		steps:     float64(ls.sys.Stats().Steps) / float64(n),
		obsEvents: float64(ls.rec.Stats().Recorded) / float64(n),
	}, nil
}

// ladderTrials is how many trials each rung configuration runs; the
// reported figure is their median.
const ladderTrials = 3

// runLadder measures every rung within roughly budget. A trial that
// fails is retried once; failures are reported, and counted in
// bench.ladder_failed_trials, not hidden.
func runLadder(budget time.Duration) (map[string]metric, []string) {
	configs := 0
	for _, r := range ladder {
		configs += len(r.shards)
	}
	per := budget / time.Duration(configs*(ladderTrials+1))
	out := map[string]metric{}
	var problems []string
	failedTrials := 0
	for _, r := range ladder {
		for _, sh := range r.shards {
			run := func(n int) (trial, error) {
				if r.serve != nil {
					return r.serve(sh, n)
				}
				opts := r.opts(sh)
				if r.name == "sched.step" {
					opts.MaxSteps = uint64(n)
				}
				return runTrial(opts, r.prog, n)
			}
			// Size the trial from a short probe so each takes about
			// `per`.
			n, probe := 64, trial{}
			var err error
			for tries := 0; tries < 2; tries++ {
				if probe, err = run(n); err == nil {
					break
				}
				failedTrials++
				problems = append(problems, fmt.Sprintf("ladder %s at %d shards: %v", r.name, sh, err))
			}
			if err != nil {
				continue
			}
			if probe.ns > 0 {
				n = int(float64(per.Nanoseconds()) / probe.ns)
			}
			n = max(64, min(n, 2_000_000))
			var ts []trial
			for i := 0; i < ladderTrials+1 && len(ts) < ladderTrials; i++ {
				t, err := run(n)
				if err != nil {
					failedTrials++
					problems = append(problems, fmt.Sprintf("ladder %s at %d shards: %v", r.name, sh, err))
					continue
				}
				ts = append(ts, t)
			}
			if len(ts) == 0 {
				continue
			}
			pick := func(f func(trial) float64) float64 {
				xs := make([]float64, len(ts))
				for i, t := range ts {
					xs[i] = f(t)
				}
				return median(xs)
			}
			scale := 1.0
			if r.unit == "us" {
				scale = 1e-3
			}
			suffix := ""
			if sh == 2 && len(r.shards) > 1 {
				suffix = ".s2"
			}
			out[r.name+"_"+r.unit+suffix] = metric{pick(func(t trial) float64 { return t.ns }) * scale, r.unit}
			out[r.name+"_allocs"+suffix] = metric{pick(func(t trial) float64 { return t.allocs }), "count"}
			if suffix == "" {
				out[r.name+"_steps"] = metric{pick(func(t trial) float64 { return t.steps }), "count"}
			}
			if r.serve != nil && suffix == "" {
				out["obs.events_per_request"] = metric{pick(func(t trial) float64 { return t.obsEvents }), "count"}
			}
		}
	}
	out["bench.ladder_failed_trials"] = metric{float64(failedTrials), "count"}
	return out, problems
}
