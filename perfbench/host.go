package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hostInfo is recorded with every result so a figure can be traced
// back to the machine and settings that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memSampler tracks the peak of the memory Go holds from the OS
// (mapped minus released) while a round runs, polled every
// millisecond. A round's peak is steadier than the process's maximum
// RSS, which is the single largest value over many rounds.
type memSampler struct {
	stop chan struct{}
	done chan float64
}

func goMemBytes(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		peak := goMemBytes(s)
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-m.stop:
				m.done <- max(peak, goMemBytes(s))
				return
			case <-tk.C:
				peak = max(peak, goMemBytes(s))
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak it saw, in MB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	return <-m.done / (1 << 20)
}

// goMeter reads Go's runtime/metrics around a measured interval:
// allocation and GC-CPU deltas, scheduling-latency histogram delta,
// and the goroutine high-water mark from a 1ms sampler.
type goMeter struct {
	before  []metrics.Sample
	stop    chan struct{}
	done    sync.WaitGroup
	peakGor atomic.Int64
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGoMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startGoMeter() *goMeter {
	m := &goMeter{before: readGoMetrics(), stop: make(chan struct{})}
	m.peakGor.Store(int64(runtime.NumGoroutine()))
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tk.C:
				if g := int64(runtime.NumGoroutine()); g > m.peakGor.Load() {
					m.peakGor.Store(g)
				}
			}
		}
	}()
	return m
}

// goDelta is what happened in Go's runtime over the metered interval.
type goDelta struct {
	Allocs, Bytes   float64
	GCCPUFraction   float64
	GoroutinesPeak  float64
	SchedLatP99US   float64
	SchedLatSamples uint64
}

func (m *goMeter) finish() goDelta {
	close(m.stop)
	m.done.Wait()
	after := readGoMetrics()
	d := goDelta{
		Allocs:         float64(after[0].Value.Uint64() - m.before[0].Value.Uint64()),
		Bytes:          float64(after[1].Value.Uint64() - m.before[1].Value.Uint64()),
		GoroutinesPeak: float64(m.peakGor.Load()),
	}
	if cpu := after[3].Value.Float64() - m.before[3].Value.Float64(); cpu > 0 {
		d.GCCPUFraction = (after[2].Value.Float64() - m.before[2].Value.Float64()) / cpu
	}
	h0, h1 := m.before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		delta[i] = h1.Counts[i] - h0.Counts[i]
		total += delta[i]
	}
	d.SchedLatSamples = total
	if total > 0 {
		rank := 0.99 * float64(total)
		var cum float64
		for i, c := range delta {
			if c == 0 {
				continue
			}
			if cum+float64(c) >= rank {
				lo, hi := h1.Buckets[i], h1.Buckets[i+1]
				// The edge buckets are open-ended: use the finite edge.
				if math.IsInf(hi, 1) {
					hi = lo
				}
				if math.IsInf(lo, -1) {
					lo = hi
				}
				d.SchedLatP99US = (lo + (hi-lo)*(rank-cum)/float64(c)) * 1e6
				break
			}
			cum += float64(c)
		}
	}
	return d
}
