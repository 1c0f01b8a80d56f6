package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/core"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one op share Op; Parent is the enclosing
// span's ID (0 for an op's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer is the untraced run: every method
// is a no-op, so workloads call it unconditionally.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// maxSpans bounds the in-memory span buffer; spans past it are
// counted as dropped rather than stored.
const maxSpans = 1 << 18

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the tracer clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// id allocates a span ID ahead of recording, so children can name
// their parent before the parent closes.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// around wraps m in a span named name: the start is stamped when m
// begins, the end when it finishes or is unwound by an exception.
func around[A any](t *tracer, name string, op, id, parent uint64, m core.IO[A]) core.IO[A] {
	if t == nil {
		return m
	}
	return core.Bind(core.Lift(t.now), func(start int64) core.IO[A] {
		rec := core.Lift(func() core.Unit {
			t.record(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: t.now()})
			return core.UnitValue
		})
		return core.Bind(core.OnException(m, rec), func(v A) core.IO[A] {
			return core.Then(rec, core.Return(v))
		})
	})
}

// selfStat summarises one span name: how many, total and self time
// (duration minus the union of its children's intervals).
type selfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	// MeanSelfUS is SelfUS per span; MedianSelfUS the median span's.
	MeanSelfUS   float64 `json:"mean_self_us"`
	MedianSelfUS float64 `json:"median_self_us"`
}

// selfTimes computes the per-name self-time summary.
func selfTimes(spans []span) []selfStat {
	kids := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	acc := map[string]*selfStat{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		dur := s.End - s.Start
		self := float64(dur-covered(s, spans, kids[s.ID])) / 1e3
		st := acc[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			acc[s.Name] = st
		}
		st.Count++
		st.TotalUS += float64(dur) / 1e3
		st.SelfUS += self
		selfs[s.Name] = append(selfs[s.Name], self)
	}
	out := make([]selfStat, 0, len(acc))
	for name, st := range acc {
		st.MeanSelfUS = st.SelfUS / float64(st.Count)
		st.MedianSelfUS = median(selfs[name])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfByName maps each span name to its median self time in µs.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range selfTimes(spans) {
		out[s.Name] = s.MedianSelfUS
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON lines to path and the self-time
// summary to path+".self.json".
func writeSpans(path string, spans []span, summary []selfStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path+".self.json", append(b, '\n'), 0o644)
}

// printSelfTimes prints the summary as a table.
func printSelfTimes(summary []selfStat) {
	fmt.Printf("  %-28s %9s %12s %14s %14s\n", "span", "count", "total_us", "mean_self_us", "median_self_us")
	for _, s := range summary {
		fmt.Printf("  %-28s %9d %12.0f %14.2f %14.2f\n", s.Name, s.Count, s.TotalUS, s.MeanSelfUS, s.MedianSelfUS)
	}
}
