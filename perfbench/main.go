// Command perfbench is the repository benchmark. It runs one named
// workload from a seed for a fixed number of seconds, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics and the cost ladder) followed by one JSON result
// line. See README.md beside this file.
//
//	bash perfbench/run.sh --workload timeout-storm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir holds everything a run leaves behind (result records and
// span files), relative to the checkout root the benchmark runs from.
const outDir = ".bench_build"

// roundResult is one fixed-size pass of a workload on a freshly built
// system.
type roundResult struct {
	setup    time.Duration // building the system, before timing starts
	elapsed  time.Duration // the timed part
	ops      int           // ops attempted
	failed   int           // ops with a wrong outcome
	lat      *hist         // per-op latency
	problems []string      // failed invariants
	counts   layerCounts
	memMB    float64 // peak memory while the round ran
}

// workload is one of the benchmark's traffic mixes, built from a seed.
type workload interface {
	// round builds a fresh system, runs the workload's stated size on
	// it and checks the outputs. tr is nil in untraced runs.
	round(tr *tracer) roundResult
	// spanMetrics derives the workload's span-based per-layer metrics.
	spanMetrics(spans []span) map[string]float64
}

var workloadNames = []string{"timeout-storm", "broker-fanout", "http-deadline"}

// roundInputs is how many input sets a workload draws from its seed.
// Rounds cycle through them, so a run's figures average over several
// draws of the workload rather than one, and the per-layer counts are
// taken over exactly one cycle, which makes them repeat at a fixed
// seed.
const roundInputs = 4

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "timeout-storm":
		return newStormWorkload(seed), nil
	case "broker-fanout":
		return newFanoutWorkload(seed), nil
	case "http-deadline":
		return newHTTPWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// aggregate is a sequence of rounds.
type aggregate struct {
	rounds     int       // timed rounds
	rates      []float64 // per timed round, ops/s
	setups     []float64 // per timed round, seconds
	mems       []float64 // per timed round peak memory, MB
	p50s       []float64 // per timed round latency quantiles, ns
	p99s       []float64
	samples    uint64      // latency samples over the timed rounds
	counts     layerCounts // over the first roundInputs timed rounds
	countedOps int         // ops in those rounds
	ops        int         // over all rounds, warm-up included
	failed     int
	problems   []string
}

func (a *aggregate) add(r roundResult, timed bool) {
	a.ops += r.ops
	a.failed += r.failed
	for _, p := range r.problems {
		if len(a.problems) < 20 {
			a.problems = append(a.problems, p)
		}
	}
	if !timed {
		return
	}
	a.rounds++
	if r.elapsed > 0 {
		a.rates = append(a.rates, float64(r.ops)/r.elapsed.Seconds())
	}
	a.setups = append(a.setups, r.setup.Seconds())
	a.mems = append(a.mems, r.memMB)
	if r.lat != nil && r.lat.n > 0 {
		a.p50s = append(a.p50s, r.lat.quantile(0.50))
		a.p99s = append(a.p99s, r.lat.quantile(0.99))
		a.samples += r.lat.n
	}
	if a.rounds <= roundInputs {
		a.countedOps += r.ops
		a.counts.add(r.counts)
	}
}

// runRounds repeats rounds until budget has elapsed (at least
// minRounds timed ones). The first tenth of the budget is warm-up: its
// rounds are checked like the others, but their figures are dropped,
// because this host's CPUs take about a second of load to reach a
// steady speed.
func runRounds(w workload, budget time.Duration, minRounds int, tr *tracer) *aggregate {
	a := &aggregate{}
	round := func() roundResult {
		// Each round starts from a collected heap, as testing.B does,
		// so one round's garbage is not charged to the next.
		runtime.GC()
		mem := startMemSampler()
		r := w.round(tr)
		r.memMB = mem.peakMB()
		return r
	}
	start := time.Now()
	for time.Since(start) < budget/10 {
		a.add(round(), false)
	}
	start = time.Now()
	for a.rounds < minRounds || time.Since(start) < budget*9/10 {
		a.add(round(), true)
	}
	return a
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line; its keys are the benchmark contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result written under outDir: the contract line
// plus the host, settings and sample counts behind it.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     hostInfo          `json:"host"`
	Rounds   int               `json:"rounds"`
	Samples  map[string]uint64 `json:"samples"`
	// RoundRates and RoundSetups are the per-round figures behind the
	// medians, in run order.
	RoundRates  []float64  `json:"round_rates,omitempty"`
	RoundSetups []float64  `json:"round_setups_s,omitempty"`
	RoundP50s   []float64  `json:"round_p50_ns,omitempty"`
	RoundP99s   []float64  `json:"round_p99_ns,omitempty"`
	Problems    []string   `json:"problems,omitempty"`
	SelfTime    []selfStat `json:"self_time,omitempty"`
	// LadderProblems are cost-ladder trials that failed. They are
	// defects of the layer under the rung, reported but not part of
	// the workload's correctness.
	LadderProblems []string `json:"ladder_problems,omitempty"`
	Result         result   `json:"result"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics and the cost ladder")
	flag.Parse()

	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Host: readHost()}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n", rec.Host.NProc, rec.Host.GOMAXPROCS,
		rec.Host.GoVersion, rec.Host.GOOS, rec.Host.GOARCH, rec.Host.CPUModel)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if rec.Trace {
		res = tracedRun(w, *name, *seed, budget, &rec)
	} else {
		res = untracedRun(w, budget, &rec)
	}
	rec.Result = res

	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traceFlag))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}
	for _, p := range rec.Problems {
		fmt.Println("DEFECT:", p)
	}
	for _, p := range rec.LadderProblems {
		fmt.Println("DEFECT (ladder):", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func untracedRun(w workload, budget time.Duration, rec *record) result {
	a := runRounds(w, budget, roundInputs, nil)
	rec.Rounds = a.rounds
	rec.RoundRates = append([]float64(nil), a.rates...)
	rec.RoundSetups = append([]float64(nil), a.setups...)
	rec.RoundP50s = append([]float64(nil), a.p50s...)
	rec.RoundP99s = append([]float64(nil), a.p99s...)
	rec.Problems = a.problems
	rec.Samples = map[string]uint64{"latency": a.samples, "rounds": uint64(a.rounds)}
	m := map[string]metric{}
	for _, e := range endToEndMetrics {
		m[e.name] = metric{e.value(a), e.unit}
	}
	printMetrics(m, map[string]string{
		"latency_p50_us": fmt.Sprintf("median of %d rounds, %d samples", a.rounds, a.samples),
		"latency_p99_us": fmt.Sprintf("median of %d rounds, %d samples", a.rounds, a.samples),
		"ops_per_s":      fmt.Sprintf("median of %d rounds", a.rounds),
		"setup_s":        fmt.Sprintf("median of %d rounds", a.rounds),
	})
	fmt.Printf("  %-34s %14.6f %-6s (failed=%d attempted=%d)\n", "fail_ratio", failRatio(a), "ratio", a.failed, a.ops)
	return result{Correct: a.failed == 0 && len(a.problems) == 0, Attempted: a.ops, Failed: a.failed, Metrics: m}
}

// endToEndMetrics are what an untraced run reports, on every workload.
// fail_ratio is printed beside them but is not among them: it is 0 on
// a correct run, and any failure already makes the run incorrect.
var endToEndMetrics = []struct {
	name, unit string
	value      func(a *aggregate) float64
}{
	{"ops_per_s", "1/s", func(a *aggregate) float64 { return median(a.rates) }},
	{"latency_p50_us", "us", func(a *aggregate) float64 { return median(a.p50s) / 1e3 }},
	{"latency_p99_us", "us", func(a *aggregate) float64 { return median(a.p99s) / 1e3 }},
	{"setup_s", "s", func(a *aggregate) float64 { return median(a.setups) }},
	{"mem_peak_mb", "MB", func(a *aggregate) float64 { return median(a.mems) }},
}

func failRatio(a *aggregate) float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(a.failed) / float64(a.ops)
}

// tracedRun spends its budget on the cost ladder, an untraced segment
// (the per-layer counters and Go runtime metrics, plus the baseline
// for the tracing overhead) and a traced segment (the spans).
func tracedRun(w workload, name string, seed int64, budget time.Duration, rec *record) result {
	m, ladderProblems := runLadder(budget * 4 / 10)

	meter := startGoMeter()
	plain := runRounds(w, budget*3/10, roundInputs, nil)
	gd := meter.finish()

	tr := newTracer()
	traced := runRounds(w, budget*3/10, 1, tr)
	spans := tr.snapshot()

	ops := float64(plain.countedOps)
	for k, v := range plain.counts.perOp(ops) {
		m[k] = metric{v, unitOf(k)}
	}
	// The Go meter ran over the whole untraced segment, warm-up and
	// set-up included.
	m["go.allocs_per_op"] = metric{gd.Allocs / float64(plain.ops), "count"}
	m["go.bytes_per_op"] = metric{gd.Bytes / float64(plain.ops), "B"}
	m["go.gc_cpu_fraction"] = metric{gd.GCCPUFraction, "ratio"}
	m["go.goroutines_peak"] = metric{gd.GoroutinesPeak, "count"}
	m["go.sched_latency_p99_us"] = metric{gd.SchedLatP99US, "us"}
	for k, v := range w.spanMetrics(spans) {
		m[k] = metric{v, unitOf(k)}
	}
	ratio := 0.0
	if pr := median(plain.rates); pr > 0 {
		ratio = median(traced.rates) / pr
	}
	m["bench.trace_overhead_ratio"] = metric{ratio, "ratio"}
	for _, n := range perLayerNames {
		if _, ok := m[n.name]; !ok {
			m[n.name] = metric{0, n.unit}
		}
	}

	summary := selfTimes(spans)
	rec.SelfTime = summary
	rec.Rounds = plain.rounds + traced.rounds
	rec.Problems = append(plain.problems, traced.problems...)
	rec.LadderProblems = ladderProblems
	rec.Samples = map[string]uint64{
		"untraced_rounds": uint64(plain.rounds), "traced_rounds": uint64(traced.rounds),
		"spans": uint64(len(spans)), "spans_dropped": uint64(tr.dropped),
		"go_sched_latency": gd.SchedLatSamples,
	}
	printMetrics(m, nil)
	fmt.Printf("self time per span (traced segment, %d spans, %d dropped):\n", len(spans), tr.dropped)
	printSelfTimes(summary)
	spanPath := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	if err := writeSpans(spanPath, spans, summary); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Println("spans written to", spanPath)
	}

	failed := plain.failed + traced.failed
	attempted := plain.ops + traced.ops
	return result{Correct: failed == 0 && len(rec.Problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

func printMetrics(m map[string]metric, notes map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %-6s %s\n", k, m[k].Value, m[k].Unit, notes[k])
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
