package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/broker"
	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

// broker-fanout: MVar park/wake, actor mailboxes, cross-shard wakes and
// steals under load, with no exceptions on the happy path. On the
// sharded engine (2 shards, virtual clock) one publisher per topic
// publishes fanoutEvents seeded events in seeded small batches through
// broker.Publish; fanoutSubs subscriber actors per topic receive them.
// A credit window of fanoutWindow deliveries per publisher makes it a
// closed loop, so the latency measured is delivery time rather than
// unbounded backlog. An op is one subscriber delivery.
const (
	fanoutTopics   = 4
	fanoutSubs     = 4
	fanoutEvents   = 6144 // per topic per round
	fanoutMaxBatch = 16
	fanoutWindow   = 256 // deliveries in flight per publisher
)

type fanoutWorkload struct {
	batches [roundInputs][fanoutTopics][]int // seeded batch sizes per topic
	rounds  int
	// Per-round scratch, indexed [topic][seq]: when the publish call
	// carrying the event started, and that call's span.
	pubStart [fanoutTopics][]atomic.Int64
	pubSpan  [fanoutTopics][]atomic.Uint64
}

func newFanoutWorkload(seed int64) *fanoutWorkload {
	r := rand.New(rand.NewSource(seed))
	w := &fanoutWorkload{}
	for i := range w.batches {
		for t := range w.batches[i] {
			for left := fanoutEvents; left > 0; {
				n := 1 + r.Intn(fanoutMaxBatch)
				if n > left {
					n = left
				}
				w.batches[i][t] = append(w.batches[i][t], n)
				left -= n
			}
		}
	}
	for t := range w.pubStart {
		w.pubStart[t] = make([]atomic.Int64, fanoutEvents+1)
		w.pubSpan[t] = make([]atomic.Uint64, fanoutEvents+1)
	}
	return w
}

// subAudit checks one subscriber's deliveries: every event of its
// topic exactly once, in publish order.
type subAudit struct {
	next      uint64 // next expected sequence number
	good      int    // in-order first deliveries
	anomalies int    // duplicates, gaps and reorders
	first     string // the first anomaly, for the report
}

func newSubAudit() subAudit { return subAudit{next: 1} }

func (a *subAudit) observe(seq uint64) {
	if seq == a.next {
		a.next++
		a.good++
		return
	}
	a.anomalies++
	if a.first == "" {
		a.first = fmt.Sprintf("got seq %d, expected %d", seq, a.next)
	}
	if seq > a.next {
		a.next = seq + 1 // resynchronise after a gap
	}
}

// finish returns the failed deliveries and a description of what went
// wrong, given the number of events the topic published.
func (a *subAudit) finish(published int) (failed int, problem string) {
	failed = published - a.good
	if a.anomalies > failed {
		failed = a.anomalies
	}
	if failed == 0 {
		return 0, ""
	}
	return failed, fmt.Sprintf("%d of %d delivered in order, %d anomalies (first: %s)",
		a.good, published, a.anomalies, a.first)
}

func (w *fanoutWorkload) round(tr *tracer) roundResult {
	const subs = fanoutTopics * fanoutSubs
	batches := &w.batches[w.rounds%roundInputs]
	w.rounds++
	audits := make([]subAudit, subs)
	hists := make([]hist, subs)
	handled := make([]int, subs)
	var batchesHandled atomic.Int64
	for i := range audits {
		audits[i] = newSubAudit()
	}
	var tStart, tEnd time.Time
	stamp := func(p *time.Time) core.IO[core.Unit] {
		return core.Lift(func() core.Unit { *p = time.Now(); return core.UnitValue })
	}

	asys := actor.NewSystem(nil)
	prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
		sems := make([]conc.QSemN, fanoutTopics)
		refs := make([]actor.Ref[broker.Cmd], fanoutTopics)

		onBatch := func(t, idx int) func([]broker.Event) core.IO[core.Unit] {
			return func(evs []broker.Event) core.IO[core.Unit] {
				op, parent := uint64(0), uint64(0)
				if len(evs) > 0 && evs[0].Seq < uint64(len(w.pubSpan[t])) {
					op = uint64(t)<<32 | evs[0].Seq
					parent = w.pubSpan[t][evs[0].Seq].Load()
				}
				body := core.Bind(core.Lift(func() bool {
					now := time.Now().UnixNano()
					a, h := &audits[idx], &hists[idx]
					for _, e := range evs {
						a.observe(e.Seq)
						if e.Seq < uint64(len(w.pubStart[t])) {
							h.add(now - w.pubStart[t][e.Seq].Load())
						}
					}
					handled[idx] += len(evs)
					batchesHandled.Add(1)
					return handled[idx] >= fanoutEvents
				}), func(finished bool) core.IO[core.Unit] {
					credit := sems[t].Signal(len(evs))
					if finished {
						return core.Then(credit, core.Put(done, core.UnitValue))
					}
					return credit
				})
				return around(tr, "broker.handle", op, 0, parent, body)
			}
		}

		setup := core.Return(core.UnitValue)
		for t := 0; t < fanoutTopics; t++ {
			t := t
			setup = core.Seq(setup,
				core.Bind(conc.NewQSemN(fanoutWindow), func(q conc.QSemN) core.IO[core.Unit] {
					sems[t] = q
					return core.Return(core.UnitValue)
				}),
				core.Bind(broker.NewTopic(asys, fmt.Sprintf("t%d", t)), func(tp broker.Topic) core.IO[core.Unit] {
					refs[t] = tp.Ref
					wire := core.Void(core.Fork(core.Void(core.Try(tp.Spec.Start()))))
					for k := 0; k < fanoutSubs; k++ {
						idx, id := t*fanoutSubs+k, fmt.Sprintf("t%d-s%d", t, k)
						wire = core.Then(wire, core.Bind(broker.NewSubscriber(asys, id, onBatch(t, idx)),
							func(sb broker.Subscriber) core.IO[core.Unit] {
								return core.Then(core.Void(core.Fork(core.Void(core.Try(sb.Spec.Start())))),
									broker.Subscribe(tp.Ref, id, sb.Ref))
							}))
					}
					return wire
				}))
		}

		publisher := func(t int) core.IO[core.Unit] {
			name := fmt.Sprintf("t%d", t)
			var loop func(bi int, next uint64) core.IO[core.Unit]
			loop = func(bi int, next uint64) core.IO[core.Unit] {
				if bi == len(batches[t]) {
					return core.Return(core.UnitValue)
				}
				n := batches[t][bi]
				op, id := uint64(t)<<32|next, tr.id()
				send := core.Bind(core.Lift(func() []broker.Event {
					evs := make([]broker.Event, n)
					now := time.Now().UnixNano()
					for i := range evs {
						seq := next + uint64(i)
						evs[i] = broker.Event{Topic: name, Seq: seq}
						w.pubStart[t][seq].Store(now)
						w.pubSpan[t][seq].Store(id)
					}
					return evs
				}), func(evs []broker.Event) core.IO[core.Unit] {
					return around(tr, "broker.publish", op, id, 0, broker.Publish(refs[t], evs))
				})
				return core.Seq(sems[t].Wait(n*fanoutSubs), send,
					core.Delay(func() core.IO[core.Unit] { return loop(bi+1, next+uint64(n)) }))
			}
			return loop(0, 1)
		}
		pubs := core.Delay(func() core.IO[core.Unit] {
			io := core.Return(core.UnitValue)
			for t := 0; t < fanoutTopics; t++ {
				io = core.Then(io, core.Void(core.Fork(publisher(t))))
			}
			return io
		})
		// On the virtual clock the hour passes only if every thread is
		// stuck, so the timeout reports lost deliveries instead of
		// hanging the round.
		wait := core.Bind(core.Timeout(time.Hour, core.ReplicateM_(subs, core.Take(done))),
			func(m core.Maybe[core.Unit]) core.IO[core.Unit] {
				if !m.IsJust {
					return core.Throw[core.Unit](exc.ErrorCall{Msg: "round stalled: deliveries lost"})
				}
				return core.Return(core.UnitValue)
			})
		return core.Seq(setup, stamp(&tStart), pubs, wait, stamp(&tEnd))
	})

	t0 := time.Now()
	sys := core.NewSystem(core.ParallelOptions(2))
	_, e, err := core.RunSystem(sys, prog)
	out := roundResult{setup: tStart.Sub(t0), elapsed: tEnd.Sub(tStart), ops: subs * fanoutEvents, lat: &hist{}}
	for i := range hists {
		out.lat.merge(&hists[i])
	}
	if err != nil || e != nil {
		out.problems = append(out.problems, fmt.Sprintf("run: exc=%v err=%v", e, err))
	}
	for i := range audits {
		f, p := audits[i].finish(fanoutEvents)
		out.failed += f
		if p != "" && len(out.problems) < 4 {
			out.problems = append(out.problems, fmt.Sprintf("subscriber t%d-s%d: %s", i/fanoutSubs, i%fanoutSubs, p))
		}
	}
	out.counts = countsFromStats(sys.Stats())
	out.counts.batches = float64(batchesHandled.Load())
	return out
}

func (w *fanoutWorkload) spanMetrics(spans []span) map[string]float64 {
	byID := make(map[uint64]span, len(spans))
	var publish, wait []float64
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "broker.publish" {
			publish = append(publish, float64(s.End-s.Start)/1e3)
		}
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Name == "broker.handle" {
			wait = append(wait, float64(s.Start-p.Start)/1e3)
		}
	}
	return map[string]float64{
		"broker.publish_call_us": median(publish),
		"broker.deliver_wait_us": median(wait),
		"broker.handle_self_us":  selfByName(spans)["broker.handle"],
	}
}
