package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/httpd"
	"asyncexc/internal/obs"
)

// http-deadline: the paper's §11 server over loopback TCP. httpd runs
// on the sharded engine (2 shards, real clock) with an obs.Recorder
// and UseResilience per-route deadlines, as axhttpd -metrics deploys
// it. httpClients raw HTTP/1.0 connections drive a closed loop over a
// seeded route mix:
//
//   - /fast: a small Bind-chain compute whose body the client checks;
//   - /spec: httpd.Speculative over three backends of different cost
//     that all return the /fast answer, so two losers are reaped;
//   - /deadline: the handler waits on an MVar nobody fills, so the
//     route deadline fires and the expected answer is a 504.
//
// This is the only workload with real I/O, iomgr's goroutine per call,
// promise awaits, Speculate reaping, real-clock timers and obs
// recording. An op is one HTTP request, timed from connect to the last
// byte read.
const (
	httpRequests      = 2048 // per round
	httpClients       = 2
	httpSpecShare     = 0.10
	httpDeadlineShare = 0.04
	httpChain         = 32
	httpDeadline      = 2 * time.Millisecond
	httpIOTimeout     = 5 * time.Second
)

// httpSpecPads are the extra steps each /spec backend takes before the
// shared answer: same result, different cost.
var httpSpecPads = []int{0, 64, 256}

type httpReq struct {
	route string // "/fast", "/spec" or "/deadline"
	n     int64
}

func (r httpReq) path() string { return r.route + "?n=" + strconv.FormatInt(r.n, 10) }

// want is the expected status and body.
func (r httpReq) want() (int, string) {
	if r.route == "/deadline" {
		return 504, "route deadline exceeded\n"
	}
	return 200, strconv.FormatInt(chainValue(r.n, httpChain), 10) + "\n"
}

type httpWorkload struct {
	lists  [roundInputs][]httpReq
	rounds int
}

func newHTTPWorkload(seed int64) *httpWorkload {
	r := rand.New(rand.NewSource(seed))
	w := &httpWorkload{}
	for l := range w.lists {
		reqs := make([]httpReq, httpRequests)
		for i := range reqs {
			route := "/fast"
			switch u := r.Float64(); {
			case u < httpDeadlineShare:
				route = "/deadline"
			case u < httpDeadlineShare+httpSpecShare:
				route = "/spec"
			}
			reqs[i] = httpReq{route: route, n: r.Int63n(1 << 20)}
		}
		w.lists[l] = reqs
	}
	return w
}

// opID names request i of input list l; spanMetrics inverts it.
func opID(l, i int) uint64 { return uint64(l)<<32 | uint64(i+1) }

func (w *httpWorkload) reqOf(op uint64) (httpReq, bool) {
	l, i := int(op>>32), int(op&(1<<32-1))-1
	if l >= len(w.lists) || i < 0 || i >= len(w.lists[l]) {
		return httpReq{}, false
	}
	return w.lists[l][i], true
}

// queryN parses the n query parameter.
func queryN(path string) int64 {
	i := strings.IndexByte(path, '=')
	if i < 0 {
		return 0
	}
	n, _ := strconv.ParseInt(path[i+1:], 10, 64)
	return n
}

func answer(n int64) core.IO[httpd.Response] {
	return core.Map(chain(n, httpChain), func(v int64) httpd.Response {
		return httpd.Text(200, strconv.FormatInt(v, 10)+"\n")
	})
}

// newServer builds the server the workload measures. Spans are taken
// by two middlewares of the benchmark's own around the resilience
// layer: httpd.admit outside it and httpd.handler inside it. The
// runtime it runs on (2 shards, real clock, observer) is built by
// startServer.
func newServer(tr *tracer) *httpd.Server {
	srv := httpd.New(httpd.Config{})
	if tr != nil {
		srv.Use(spanMiddleware(tr, "httpd.admit"))
	}
	srv.UseResilience(httpd.AdmissionConfig{
		RouteDeadlines: map[string]time.Duration{
			"/fast": time.Second, "/spec": time.Second, "/deadline": httpDeadline,
		},
		// Every /deadline request is an expected 504, which the
		// breaker would count as a failure; keep it closed so the
		// workload measures deadlines rather than shedding.
		BreakerThreshold: 1 << 30,
	})
	if tr != nil {
		srv.Use(spanMiddleware(tr, "httpd.handler"))
	}
	srv.Handle("/fast", func(r httpd.Request) core.IO[httpd.Response] { return answer(queryN(r.Path)) })
	backends := make([]httpd.Handler, len(httpSpecPads))
	for i, pad := range httpSpecPads {
		pad := pad
		backends[i] = func(r httpd.Request) core.IO[httpd.Response] {
			op, parent := spanIDs(r)
			work := core.Then(core.ReplicateM_(pad, core.Return(core.UnitValue)), answer(queryN(r.Path)))
			return around(tr, "spec.backend", op, 0, parent, work)
		}
	}
	srv.Handle("/spec", httpd.Speculative("spec", backends...))
	srv.Handle("/deadline", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Bind(core.NewEmptyMVar[httpd.Response](), core.Take[httpd.Response])
	})
	return srv
}

// spanIDs reads the op id and parent span a request carries.
func spanIDs(r httpd.Request) (op, parent uint64) {
	op, _ = strconv.ParseUint(r.Headers["x-op"], 10, 64)
	parent, _ = strconv.ParseUint(r.Headers["x-parent"], 10, 64)
	return op, parent
}

// spanMiddleware records a span around the rest of the chain and makes
// it the parent of the spans inside.
func spanMiddleware(tr *tracer, name string) httpd.Middleware {
	return func(next httpd.Handler) httpd.Handler {
		return func(r httpd.Request) core.IO[httpd.Response] {
			op, parent := spanIDs(r)
			id := tr.id()
			r.Headers["x-parent"] = strconv.FormatUint(id, 10)
			return around(tr, name, op, id, parent, next(r))
		}
	}
}

// httpResult is what a client saw for one request.
type httpResult struct {
	status int
	body   string
	err    error
}

// checkResponse compares a response with the route's expectation.
func checkResponse(req httpReq, got httpResult) error {
	if got.err != nil {
		return fmt.Errorf("%s: %v", req.path(), got.err)
	}
	status, body := req.want()
	if got.status != status || got.body != body {
		return fmt.Errorf("%s: got %d %q, want %d %q", req.path(), got.status, got.body, status, body)
	}
	return nil
}

// serverCounts are the server-side totals reconciled against the
// client's.
type serverCounts struct {
	accepted, served, deadlineHit, errs, timedOut, handlerEx, shed, rejected, active int64
}

func readServerCounts(s *httpd.Stats) serverCounts {
	return serverCounts{
		accepted: s.Accepted.Load(), served: s.Served.Load(), deadlineHit: s.DeadlineHit.Load(),
		errs: s.Errors.Load(), timedOut: s.TimedOut.Load(), handlerEx: s.HandlerEx.Load(),
		shed: s.Shed.Load(), rejected: s.Rejected.Load(), active: s.Active.Load(),
	}
}

// reconcile checks the server's Stats against the client's counts:
// every request accepted and served, exactly the /deadline ones hit
// their deadline, nothing errored, shed or left active.
func reconcile(sent, deadlines int64, s serverCounts) []string {
	var out []string
	if s.accepted != sent || s.served != sent {
		out = append(out, fmt.Sprintf("server accepted %d, served %d; client sent %d", s.accepted, s.served, sent))
	}
	if s.deadlineHit != deadlines {
		out = append(out, fmt.Sprintf("server DeadlineHit %d, client sent %d /deadline requests", s.deadlineHit, deadlines))
	}
	if s.errs+s.timedOut+s.handlerEx+s.shed+s.rejected != 0 || s.active != 0 {
		out = append(out, fmt.Sprintf("server errors=%d timedOut=%d handlerEx=%d shed=%d rejected=%d active=%d",
			s.errs, s.timedOut, s.handlerEx, s.shed, s.rejected, s.active))
	}
	return out
}

// get performs one HTTP/1.0 request, returning the response and the
// connect time.
func get(addr string, req httpReq, op, span uint64) (httpResult, time.Duration) {
	start := time.Now()
	c, err := net.Dial("tcp", addr)
	connect := time.Since(start)
	if err != nil {
		return httpResult{err: err}, connect
	}
	defer c.Close()
	// A server that stops answering fails the request instead of
	// hanging the run.
	if err := c.SetDeadline(start.Add(httpIOTimeout)); err != nil {
		return httpResult{err: err}, connect
	}
	msg := "GET " + req.path() + " HTTP/1.0\r\nX-Op: " + strconv.FormatUint(op, 10) +
		"\r\nX-Parent: " + strconv.FormatUint(span, 10) + "\r\n\r\n"
	if _, err := io.WriteString(c, msg); err != nil {
		return httpResult{err: err}, connect
	}
	raw, err := io.ReadAll(c)
	if err != nil {
		return httpResult{err: err}, connect
	}
	return parseResponse(raw), connect
}

func parseResponse(raw []byte) httpResult {
	head, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
	line, _, _ := bytes.Cut(head, []byte("\r\n"))
	var proto string
	var status int
	if _, err := fmt.Sscanf(string(line), "%s %d", &proto, &status); err != nil || !ok {
		return httpResult{err: fmt.Errorf("malformed response %q", raw)}
	}
	return httpResult{status: status, body: string(body)}
}

// liveServer is a running workload server.
type liveServer struct {
	addr    string
	srv     *httpd.Server
	sys     *core.System
	rec     *obs.Recorder
	stopped chan error
	down    atomic.Bool // the runtime has stopped
}

// startServer builds the workload's server on a fresh runtime and
// starts serving on a loopback port.
func startServer(tr *tracer, shards int) (*liveServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{addr: l.Addr().String(), srv: newServer(tr), rec: obs.NewRecorder(0), stopped: make(chan error, 1)}
	opts := core.RealTimeOptions()
	opts.Shards = shards
	opts.Observer = ls.rec
	ls.sys = core.NewSystem(opts)
	go func() {
		_, e, err := core.RunSystem(ls.sys, ls.srv.RunOn(l))
		// A runtime that stops on its own must refuse new clients
		// rather than leave them on accepted, never-served sockets.
		ls.down.Store(true)
		l.Close()
		if err == nil && e != nil && !e.Eq(exc.ThreadKilled{}) {
			err = exc2err(e)
		}
		ls.stopped <- err
	}()
	return ls, nil
}

// stop kills the server's main thread and waits for the runtime; it
// returns why the runtime stopped if that was not the kill.
func (ls *liveServer) stop() error {
	ls.sys.KillMain()
	return <-ls.stopped
}

func (w *httpWorkload) round(tr *tracer) roundResult {
	list := w.rounds % roundInputs
	reqs := w.lists[list]
	w.rounds++
	out := roundResult{lat: &hist{}, ops: len(reqs)}
	t0 := time.Now()
	ls, err := startServer(tr, 2)
	if err != nil {
		out.problems = []string{"listen: " + err.Error()}
		out.failed = len(reqs)
		return out
	}
	// Set-up ends when the server has answered its first request.
	probe := httpReq{route: "/fast", n: 1}
	first, _ := get(ls.addr, probe, 0, 0)
	out.setup = time.Since(t0)
	if err := checkResponse(probe, first); err != nil {
		out.problems = append(out.problems, "first request: "+err.Error())
	}

	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var deadlines int64
	for _, r := range reqs {
		if r.route == "/deadline" {
			deadlines++
		}
	}
	start := time.Now()
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h hist
			var failed int
			var problems []string
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					break
				}
				req := reqs[i]
				if ls.down.Load() {
					failed++
					continue
				}
				op, root := opID(list, i), tr.id()
				begin := tr.now()
				t := time.Now()
				got, connect := get(ls.addr, req, op, root)
				h.add(int64(time.Since(t)))
				if tr != nil {
					end := tr.now()
					tr.record(span{ID: root, Op: op, Name: "http.request", Start: begin, End: end})
					tr.record(span{Parent: root, Op: op, Name: "httpd.connect", Start: begin, End: begin + int64(connect)})
				}
				if err := checkResponse(req, got); err != nil {
					failed++
					if len(problems) < 3 {
						problems = append(problems, err.Error())
					}
				}
			}
			mu.Lock()
			out.lat.merge(&h)
			out.failed += failed
			out.problems = append(out.problems, problems...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)

	if err := ls.stop(); err != nil {
		out.problems = append(out.problems, "server runtime stopped early: "+err.Error())
	}
	out.problems = append(out.problems, reconcile(int64(len(reqs))+1, deadlines, readServerCounts(&ls.srv.Stats))...)
	st := ls.rec.Stats()
	out.counts = countsFromStats(ls.sys.Stats())
	out.counts.obsEvents = float64(st.Recorded)
	out.counts.obsDropped = float64(st.Dropped)
	out.counts.deadlineHits = float64(ls.srv.Stats.DeadlineHit.Load())
	return out
}

func (w *httpWorkload) spanMetrics(spans []span) map[string]float64 {
	type opSpans struct {
		request, admit   *span
		backendEnds      []int64
		deadline, isSpec bool
	}
	ops := map[uint64]*opSpans{}
	get := func(op uint64) *opSpans {
		o := ops[op]
		if o == nil {
			o = &opSpans{}
			if req, ok := w.reqOf(op); ok {
				o.deadline = req.route == "/deadline"
				o.isSpec = req.route == "/spec"
			}
			ops[op] = o
		}
		return o
	}
	var request, connect []float64
	for i := range spans {
		s := &spans[i]
		d := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "http.request":
			request = append(request, d)
			get(s.Op).request = s
		case "httpd.connect":
			connect = append(connect, d)
		case "httpd.admit":
			get(s.Op).admit = s
		case "spec.backend":
			o := get(s.Op)
			o.backendEnds = append(o.backendEnds, s.End)
		}
	}
	var overhead, reap, overshoot []float64
	for _, o := range ops {
		if o.request != nil && o.admit != nil {
			overhead = append(overhead, float64((o.request.End-o.request.Start)-(o.admit.End-o.admit.Start))/1e3)
		}
		if o.deadline && o.admit != nil {
			overshoot = append(overshoot, float64(o.admit.End-o.admit.Start-int64(httpDeadline))/1e3)
		}
		if o.isSpec && len(o.backendEnds) == len(httpSpecPads) {
			lo, hi := o.backendEnds[0], o.backendEnds[0]
			for _, e := range o.backendEnds {
				lo, hi = min(lo, e), max(hi, e)
			}
			reap = append(reap, float64(hi-lo)/1e3)
		}
	}
	self := selfByName(spans)
	return map[string]float64{
		"httpd.request_us":                     median(request),
		"httpd.connect_us":                     median(connect),
		"httpd.overhead_us":                    median(overhead),
		"httpd.handler_self_us":                self["httpd.handler"],
		"resilience.admit_self_us":             self["httpd.admit"],
		"httpd.spec_loser_reap_us":             median(reap),
		"resilience.deadline_overshoot_p50_us": quantileOf(overshoot, 0.50),
		"resilience.deadline_overshoot_p99_us": quantileOf(overshoot, 0.99),
	}
}
