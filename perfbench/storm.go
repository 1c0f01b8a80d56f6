package main

import (
	"fmt"
	"math/rand"
	"time"

	"asyncexc/internal/core"
)

// timeout-storm: the paper's §7/§8 machinery as pure CPU. On the
// serial engine with the virtual clock, stormWorkers green workers
// drain a seeded job list. Each job is
//
//	Bracket(take resource, Timeout(budget, k-step Bind chain; Sleep d), put resource back)
//
// and about stormTimeoutShare of the jobs sleep past their budget.
// Every Timeout delivers exactly one throwTo (it kills whichever side
// of its either-race lost), so the workload isolates the interpreter,
// the throwTo/mask paths and Go allocation. With the virtual clock the
// step count is a pure function of the seed.
const (
	stormJobs         = 8192
	stormWorkers      = 36
	stormResources    = 12
	stormBudget       = 10 * time.Millisecond
	stormTimeoutShare = 0.10
	stormMinChain     = 8
	stormMaxChain     = 64
)

type stormJob struct {
	chain    int
	res      int
	sleep    time.Duration
	x0       int64
	timedOut bool  // expected outcome: the budget fires first
	want     int64 // expected value when !timedOut
}

func chainValue(x int64, k int) int64 {
	for i := k; i > 0; i-- {
		x = x*31 + int64(i)
	}
	return x
}

func makeStormJobs(r *rand.Rand) []stormJob {
	jobs := make([]stormJob, stormJobs)
	for i := range jobs {
		j := stormJob{
			chain: stormMinChain + r.Intn(stormMaxChain-stormMinChain+1),
			res:   r.Intn(stormResources),
			x0:    r.Int63n(1 << 20),
		}
		// A 1ms margin either side of the budget keeps the race
		// outcome independent of timer tie-breaking.
		if r.Float64() < stormTimeoutShare {
			j.timedOut = true
			j.sleep = stormBudget + time.Millisecond + time.Duration(r.Int63n(int64(stormBudget)))
		} else {
			j.sleep = time.Duration(r.Int63n(int64(stormBudget - time.Millisecond)))
		}
		j.want = chainValue(j.x0, j.chain)
		jobs[i] = j
	}
	return jobs
}

// chain is k nested Binds, each allocating its continuation closure:
// the bind/alloc cost the workload is meant to expose.
func chain(x int64, k int) core.IO[int64] {
	if k == 0 {
		return core.Return(x)
	}
	return core.Bind(core.Return(x), func(v int64) core.IO[int64] {
		return chain(v*31+int64(k), k-1)
	})
}

// stormOutcome is what one job reported.
type stormOutcome struct {
	done     bool
	timedOut bool
	value    int64
}

// stormResult is everything the timeout-storm checks look at.
type stormResult struct {
	outcomes   []stormOutcome
	acquires   []uint8 // per job
	releases   []uint8 // per job
	resCounts  []int   // final value of each resource MVar, -1 if left empty
	liveBefore int
	liveAfter  int
	delivered  uint64
}

// checkStorm verifies a round: every outcome matches its seeded
// expectation, every bracket acquire has exactly one release, each
// resource counts exactly the jobs that used it and is left full, live
// threads return to the baseline, and Delivered is one per Timeout.
// It returns the number of wrong outcomes and every problem found.
func checkStorm(jobs []stormJob, r stormResult) (failed int, problems []string) {
	uses := make([]int, stormResources)
	for i, j := range jobs {
		uses[j.res]++
		o := r.outcomes[i]
		ok := o.done && o.timedOut == j.timedOut && (j.timedOut || o.value == j.want)
		if !ok {
			failed++
			if failed <= 3 {
				problems = append(problems, fmt.Sprintf("job %d: got %+v, want timedOut=%v value=%d", i, o, j.timedOut, j.want))
			}
		}
		if r.acquires[i] != 1 || r.releases[i] != 1 {
			problems = append(problems, fmt.Sprintf("job %d: %d acquires, %d releases", i, r.acquires[i], r.releases[i]))
		}
	}
	for i, c := range r.resCounts {
		if c != uses[i] {
			problems = append(problems, fmt.Sprintf("resource %d: count %d, want %d (left empty = -1)", i, c, uses[i]))
		}
	}
	if r.liveAfter != r.liveBefore {
		problems = append(problems, fmt.Sprintf("live threads %d after the round, %d before", r.liveAfter, r.liveBefore))
	}
	if r.delivered != uint64(len(jobs)) {
		problems = append(problems, fmt.Sprintf("Delivered = %d, want one per Timeout = %d", r.delivered, len(jobs)))
	}
	return failed, problems
}

type stormWorkload struct {
	lists  [roundInputs][]stormJob
	rounds int
}

func newStormWorkload(seed int64) *stormWorkload {
	r := rand.New(rand.NewSource(seed))
	w := &stormWorkload{}
	for i := range w.lists {
		w.lists[i] = makeStormJobs(r)
	}
	return w
}

func (w *stormWorkload) round(tr *tracer) roundResult {
	jobs := w.lists[w.rounds%roundInputs]
	w.rounds++
	n := len(jobs)
	res := stormResult{
		outcomes:  make([]stormOutcome, n),
		acquires:  make([]uint8, n),
		releases:  make([]uint8, n),
		resCounts: make([]int, stormResources),
	}
	lat := &hist{}
	var tStart, tEnd time.Time

	stamp := func(p *time.Time) core.IO[core.Unit] {
		return core.Lift(func() core.Unit { *p = time.Now(); return core.UnitValue })
	}

	runJob := func(i int, rs []core.MVar[int]) core.IO[core.Unit] {
		j := jobs[i]
		op := uint64(i + 1)
		root, tmo := tr.id(), tr.id()
		body := core.Bind(chain(j.x0, j.chain), func(v int64) core.IO[int64] {
			return core.Then(core.Sleep(j.sleep), core.Return(v))
		})
		acquire := around(tr, "core.bracket.acquire", op, 0, root, core.Bind(core.Take(rs[j.res]), func(c int) core.IO[int] {
			return core.Lift(func() int { res.acquires[i]++; return c })
		}))
		release := func(c int) core.IO[core.Unit] {
			return around(tr, "core.bracket.release", op, 0, root, core.Then(
				core.Lift(func() core.Unit { res.releases[i]++; return core.UnitValue }),
				core.Put(rs[j.res], c+1)))
		}
		timed := func(int) core.IO[core.Maybe[int64]] {
			return around(tr, "core.timeout", op, tmo, root,
				core.Timeout(stormBudget, around(tr, "job.body", op, 0, tmo, body)))
		}
		return core.Bind(core.Lift(time.Now), func(deq time.Time) core.IO[core.Unit] {
			return core.Bind(around(tr, "job", op, root, 0, core.Bracket(acquire, timed, release)),
				func(m core.Maybe[int64]) core.IO[core.Unit] {
					return core.Lift(func() core.Unit {
						lat.add(int64(time.Since(deq)))
						res.outcomes[i] = stormOutcome{done: true, timedOut: !m.IsJust, value: m.Value}
						return core.UnitValue
					})
				})
		})
	}

	prog := core.Bind(core.NewMVar(0), func(queue core.MVar[int]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
			rs := make([]core.MVar[int], stormResources)
			mk := core.Return(core.UnitValue)
			for r := range rs {
				r := r
				mk = core.Then(mk, core.Bind(core.NewMVar(0), func(m core.MVar[int]) core.IO[core.Unit] {
					rs[r] = m
					return core.Return(core.UnitValue)
				}))
			}
			var worker func() core.IO[core.Unit]
			worker = func() core.IO[core.Unit] {
				return core.Bind(core.Take(queue), func(i int) core.IO[core.Unit] {
					if i >= n {
						return core.Then(core.Put(queue, i), core.Put(done, core.UnitValue))
					}
					return core.Seq(core.Put(queue, i+1), runJob(i, rs), core.Delay(worker))
				})
			}
			spawn := core.Delay(func() core.IO[core.Unit] {
				return core.ReplicateM_(stormWorkers, core.Void(core.Fork(core.Delay(worker))))
			})
			readCounts := core.Delay(func() core.IO[core.Unit] {
				io := core.Return(core.UnitValue)
				for r := range rs {
					r := r
					io = core.Then(io, core.Bind(core.TryTake(rs[r]), func(m core.Maybe[int]) core.IO[core.Unit] {
						res.resCounts[r] = -1
						if m.IsJust {
							res.resCounts[r] = m.Value
						}
						return core.Return(core.UnitValue)
					}))
				}
				return io
			})
			return core.Seq(
				mk,
				core.Bind(core.LiveThreads(), func(l int) core.IO[core.Unit] { res.liveBefore = l; return core.Return(core.UnitValue) }),
				spawn,
				stamp(&tStart),
				core.ReplicateM_(stormWorkers, core.Take(done)),
				stamp(&tEnd),
				core.Delay(func() core.IO[core.Unit] { return settle(&res.liveAfter, res.liveBefore) }),
				readCounts,
			)
		})
	})

	t0 := time.Now()
	sys := core.NewSystem(core.DefaultOptions())
	_, e, err := core.RunSystem(sys, prog)
	out := roundResult{setup: tStart.Sub(t0), elapsed: tEnd.Sub(tStart), ops: n, lat: lat}
	if err != nil || e != nil {
		out.problems = append(out.problems, fmt.Sprintf("run: exc=%v err=%v", e, err))
		out.failed = n
		return out
	}
	st := sys.Stats()
	res.delivered = st.Delivered
	out.failed, out.problems = checkStorm(jobs, res)
	out.counts = countsFromStats(st)
	return out
}

// settle yields until the live-thread count falls back to want (killed
// children finish dying at their next scheduling turn), then records
// it. It gives up after a bounded number of turns and records what it
// saw, so a leak shows up as a failed check rather than a hang.
func settle(into *int, want int) core.IO[core.Unit] {
	var loop func(tries int) core.IO[core.Unit]
	loop = func(tries int) core.IO[core.Unit] {
		return core.Bind(core.LiveThreads(), func(l int) core.IO[core.Unit] {
			if l == want || tries == 0 {
				*into = l
				return core.Return(core.UnitValue)
			}
			return core.Then(core.Yield(), core.Delay(func() core.IO[core.Unit] { return loop(tries - 1) }))
		})
	}
	return loop(10000)
}

func (w *stormWorkload) spanMetrics(spans []span) map[string]float64 {
	self := selfByName(spans)
	return map[string]float64{
		"core.timeout_self_us": self["core.timeout"],
		"core.bracket_self_us": self["job"],
	}
}
