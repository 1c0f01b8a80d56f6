package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// cleanStorm is the result a correct timeout-storm round reports.
func cleanStorm(jobs []stormJob) stormResult {
	r := stormResult{
		outcomes:   make([]stormOutcome, len(jobs)),
		acquires:   make([]uint8, len(jobs)),
		releases:   make([]uint8, len(jobs)),
		resCounts:  make([]int, stormResources),
		liveBefore: 1,
		liveAfter:  1,
		delivered:  uint64(len(jobs)),
	}
	for i, j := range jobs {
		r.outcomes[i] = stormOutcome{done: true, timedOut: j.timedOut}
		if !j.timedOut {
			r.outcomes[i].value = j.want
		}
		r.acquires[i], r.releases[i] = 1, 1
		r.resCounts[j.res]++
	}
	return r
}

func TestStormCheckCatchesCorruption(t *testing.T) {
	jobs := makeStormJobs(rand.New(rand.NewSource(7)))
	if failed, problems := checkStorm(jobs, cleanStorm(jobs)); failed != 0 || len(problems) != 0 {
		t.Fatalf("clean result flagged: failed=%d %v", failed, problems)
	}
	ok := 0
	for jobs[ok].timedOut {
		ok++
	}
	cases := map[string]func(r *stormResult){
		"wrong value": func(r *stormResult) { r.outcomes[ok].value++ },
		"timed out instead of a value": func(r *stormResult) {
			r.outcomes[ok] = stormOutcome{done: true, timedOut: true}
		},
		"job never finished": func(r *stormResult) { r.outcomes[ok] = stormOutcome{} },
		"leaked bracket": func(r *stormResult) {
			r.releases[ok] = 0
			r.resCounts[jobs[ok].res] = -1
		},
		"double release":     func(r *stormResult) { r.releases[ok] = 2 },
		"leaked thread":      func(r *stormResult) { r.liveAfter++ },
		"missing delivery":   func(r *stormResult) { r.delivered-- },
		"duplicate delivery": func(r *stormResult) { r.delivered++ },
	}
	for name, corrupt := range cases {
		r := cleanStorm(jobs)
		corrupt(&r)
		if failed, problems := checkStorm(jobs, r); failed == 0 && len(problems) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestFanoutAuditCatchesCorruption(t *testing.T) {
	const n = 100
	run := func(seqs []uint64) int {
		a := newSubAudit()
		for _, s := range seqs {
			a.observe(s)
		}
		failed, _ := a.finish(n)
		return failed
	}
	seqs := func() []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i + 1)
		}
		return out
	}
	if f := run(seqs()); f != 0 {
		t.Fatalf("clean stream flagged: %d failed", f)
	}
	dropped := append(seqs()[:40:40], seqs()[41:]...)
	duplicated := append(seqs()[:41:41], seqs()[40:]...)
	reordered := seqs()
	reordered[10], reordered[11] = reordered[11], reordered[10]
	lostTail := seqs()[:n-1]
	for name, s := range map[string][]uint64{
		"dropped delivery": dropped, "duplicated delivery": duplicated,
		"reordered delivery": reordered, "lost last delivery": lostTail,
	} {
		if f := run(s); f == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestHTTPChecksCatchCorruption(t *testing.T) {
	for _, req := range []httpReq{{route: "/fast", n: 3}, {route: "/spec", n: 4}, {route: "/deadline", n: 5}} {
		status, body := req.want()
		if err := checkResponse(req, httpResult{status: status, body: body}); err != nil {
			t.Fatalf("clean response flagged: %v", err)
		}
		for name, got := range map[string]httpResult{
			"wrong body":      {status: status, body: body + "x"},
			"wrong status":    {status: 500, body: body},
			"transport error": {err: errors.New("connection reset")},
		} {
			if checkResponse(req, got) == nil {
				t.Errorf("%s %s: not caught", req.route, name)
			}
		}
	}
	good := serverCounts{accepted: 11, served: 11, deadlineHit: 2}
	if p := reconcile(11, 2, good); len(p) != 0 {
		t.Fatalf("clean counts flagged: %v", p)
	}
	for name, s := range map[string]serverCounts{
		"request not served":   {accepted: 11, served: 10, deadlineHit: 2},
		"deadline not counted": {accepted: 11, served: 11, deadlineHit: 1},
		"handler error":        {accepted: 11, served: 11, deadlineHit: 2, handlerEx: 1},
		"connection left open": {accepted: 11, served: 11, deadlineHit: 2, active: 1},
	} {
		if len(reconcile(11, 2, s)) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
	if parseResponse([]byte("HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nabc")).body != "abc" {
		t.Error("parseResponse lost the body")
	}
	if parseResponse([]byte("garbage")).err == nil {
		t.Error("parseResponse accepted a malformed response")
	}
}

// TestWorkloadRoundsAreClean runs one round of each workload the
// benchmark publishes and expects no failure. http-deadline is left
// out: its sharded server currently dies under load (see README.md),
// which the benchmark reports as a defect rather than tests around.
func TestWorkloadRoundsAreClean(t *testing.T) {
	for _, name := range []string{"timeout-storm", "broker-fanout"} {
		w, err := newWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		r := w.round(nil)
		if r.failed != 0 || len(r.problems) != 0 {
			t.Errorf("%s: failed=%d problems=%v", name, r.failed, r.problems)
		}
		if r.lat.n != uint64(r.ops) {
			t.Errorf("%s: %d latency samples for %d ops", name, r.lat.n, r.ops)
		}
	}
}

func TestStormStepsRepeatAtFixedSeed(t *testing.T) {
	w, _ := newWorkload("timeout-storm", 5)
	a := w.round(nil)
	for i := 1; i < roundInputs; i++ {
		w.round(nil)
	}
	b := w.round(nil)
	if a.counts.steps == 0 || a.counts.steps != b.counts.steps {
		t.Fatalf("steps differ between rounds at one seed: %v vs %v", a.counts.steps, b.counts.steps)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "kid", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "kid", Start: 90, End: 120}, // runs past the parent
	}
	self := map[string]float64{}
	for _, s := range selfTimes(spans) {
		self[s.Name] = s.SelfUS * 1e3
	}
	if math.Abs(self["root"]-40) > 1e-6 { // 100 - [10,60) - [90,100)
		t.Errorf("root self = %v ns, want 40", self["root"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with what the
// command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	e2e := map[string]string{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = m.unit
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s/%s not printed as such", m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, m := range b.PerLayer {
		if want := perLayerNames[i]; m.Name != want.name || m.Unit != want.unit {
			t.Errorf("per_layer[%d] = %s/%s, the command prints %s/%s", i, m.Name, m.Unit, want.name, want.unit)
		}
		if strings.Count(m.Name, ".") < 1 {
			t.Errorf("%s: per-layer names start with their layer", m.Name)
		}
	}
}
