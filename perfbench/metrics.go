package main

import (
	"strings"

	"asyncexc/internal/sched"
)

// layerCounts are the per-layer counts of a round, read from the
// layers' public counters after the round ends.
type layerCounts struct {
	steps, delivered, interrupts, preemptions float64
	parks, steals, mailboxMax                 float64
	awaits, awaitParks, promisesCancelled     float64
	obsEvents, obsDropped                     float64
	deadlineHits                              float64
	batches                                   float64 // subscriber handler invocations (broker)
}

func countsFromStats(st sched.Stats) layerCounts {
	return layerCounts{
		steps:             float64(st.Steps),
		delivered:         float64(st.Delivered),
		interrupts:        float64(st.Interrupts),
		preemptions:       float64(st.Preemptions),
		parks:             float64(st.MVarTakeParks + st.MVarPutParks),
		steals:            float64(st.Steals),
		mailboxMax:        float64(st.MailboxDepth),
		awaits:            float64(st.Awaits),
		awaitParks:        float64(st.AwaitParks),
		promisesCancelled: float64(st.PromisesCancelled),
	}
}

func (c *layerCounts) add(o layerCounts) {
	c.steps += o.steps
	c.delivered += o.delivered
	c.interrupts += o.interrupts
	c.preemptions += o.preemptions
	c.parks += o.parks
	c.steals += o.steals
	if o.mailboxMax > c.mailboxMax {
		c.mailboxMax = o.mailboxMax
	}
	c.awaits += o.awaits
	c.awaitParks += o.awaitParks
	c.promisesCancelled += o.promisesCancelled
	c.obsEvents += o.obsEvents
	c.obsDropped += o.obsDropped
	c.deadlineHits += o.deadlineHits
	c.batches += o.batches
}

// perOp turns the counts into the per-layer metrics.
func (c layerCounts) perOp(ops float64) map[string]float64 {
	if ops <= 0 {
		ops = 1
	}
	m := map[string]float64{
		"sched.steps_per_op":              c.steps / ops,
		"sched.delivered_per_op":          c.delivered / ops,
		"sched.interrupts_per_op":         c.interrupts / ops,
		"sched.preemptions_per_op":        c.preemptions / ops,
		"sched.parks_per_op":              c.parks / ops,
		"sched.steals_per_op":             c.steals / ops,
		"sched.mailbox_depth_max":         c.mailboxMax,
		"sched.awaits_per_op":             c.awaits / ops,
		"sched.await_parks_per_op":        c.awaitParks / ops,
		"sched.promises_cancelled_per_op": c.promisesCancelled / ops,
	}
	if c.obsEvents > 0 { // only http-deadline runs an observer
		m["obs.events_per_op"] = c.obsEvents / ops
		m["obs.dropped"] = c.obsDropped
		m["resilience.deadline_hits_per_op"] = c.deadlineHits / ops
	}
	if c.batches > 0 {
		m["broker.events_per_batch"] = ops / c.batches
	}
	return m
}

type metricName struct{ name, unit string }

// perLayerNames lists every per-layer metric a traced run prints, in
// BENCHMARK.json order: the cost ladder (each rung at 1 shard with
// _allocs and _steps, and with a .s2 suffix at 2 shards), then the
// workloads' counts and spans, Go's runtime, and the tracing overhead.
var perLayerNames = func() []metricName {
	var out []metricName
	for _, r := range ladder {
		out = append(out,
			metricName{r.name + "_" + r.unit, r.unit},
			metricName{r.name + "_allocs", "count"},
			metricName{r.name + "_steps", "count"})
		if len(r.shards) > 1 {
			out = append(out,
				metricName{r.name + "_" + r.unit + ".s2", r.unit},
				metricName{r.name + "_allocs.s2", "count"})
		}
	}
	for _, n := range []string{
		"obs.events_per_request", "bench.ladder_failed_trials",
		"sched.steps_per_op", "sched.delivered_per_op", "sched.interrupts_per_op",
		"sched.preemptions_per_op", "sched.parks_per_op", "sched.steals_per_op",
		"sched.mailbox_depth_max", "sched.awaits_per_op", "sched.await_parks_per_op",
		"sched.promises_cancelled_per_op",
		"core.timeout_self_us", "core.bracket_self_us",
		"broker.publish_call_us", "broker.deliver_wait_us", "broker.handle_self_us",
		"broker.events_per_batch",
		"go.allocs_per_op", "go.bytes_per_op", "go.gc_cpu_fraction", "go.goroutines_peak",
		"go.sched_latency_p99_us",
		"bench.trace_overhead_ratio",
	} {
		out = append(out, metricName{n, unitOf(n)})
	}
	return out
}()

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	base := strings.TrimSuffix(name, ".s2")
	switch {
	case strings.HasSuffix(base, "_ns"):
		return "ns"
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_fraction"), strings.HasSuffix(base, "_ratio"):
		return "ratio"
	case strings.HasSuffix(base, "bytes_per_op"):
		return "B"
	}
	return "count"
}
