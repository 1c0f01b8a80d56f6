package sched

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// This file implements the parallel execution engine: the runtime
// sharded across Options.Shards worker goroutines, each owning a run
// queue, a timer heap and a mailbox, with work stealing for load
// balance. The design follows the multicore GHC RTS (per-capability
// run queues + stealing) and Erlang's schedulers (cross-scheduler
// signals as messages), chosen so the paper's delivery semantics carry
// over unchanged:
//
//   - A thread is owned by exactly one shard at a time; only the owner
//     steps it or transitions its status. Ownership moves only when a
//     thief pops a runnable thread from a victim's run queue (under the
//     victim's shard lock), so a thread's interpreter steps still form
//     a single total order and rule (Receive) keeps firing only at
//     redex boundaries of that order.
//   - Anything another shard wants done to a thread — landing a
//     throwTo, waking a parked waiter, completing an await — travels as
//     a mailbox message to the owner, processed between time slices.
//     Delivery points are therefore exactly the serial ones.
//   - MVar and console handoffs commit under the MVar/console lock:
//     popping a waiter from a wait queue commits its wakeup. An
//     interrupt that loses this race (rule Interrupt vs. an in-flight
//     committed wakeup) appends the exception to the thread's pending
//     queue instead, which is precisely §5.3's "right up until the
//     point when it acquires the MVar" — the acquisition has happened,
//     so the exception waits for the next delivery point.
//
// Serial mode (Shards <= 1) never takes any of these locks and is
// bit-for-bit the old single-goroutine interpreter.

// shardMsgKind enumerates cross-shard mailbox messages.
type shardMsgKind uint8

const (
	// msgThrowTo lands an asynchronous exception (with optional §9
	// synchronous waiter) on a thread owned by the receiving shard.
	msgThrowTo shardMsgKind = iota
	// msgUnpark resumes a thread whose MVar/console wakeup was
	// committed by another shard; must-deliver.
	msgUnpark
	// msgWakeWaiter wakes a synchronous thrower once its exception was
	// delivered (or its target died); droppable, guarded by parkSeq.
	msgWakeWaiter
	// msgWithdraw removes an interrupted synchronous thrower's
	// in-flight exception from the target's pending queue.
	msgWithdraw
	// msgAwaitDone carries an I/O-manager completion to the owner of
	// the awaiting thread; staleness-checked against park.awaitID.
	msgAwaitDone
	// msgAdopt enqueues a freshly spawned thread on the shard it was
	// pinned to (ForkOn): the thread was created already owned by the
	// receiver and has never been in any run queue.
	msgAdopt
	// msgPromiseWake resumes a promise awaiter whose wakeup was
	// committed by the settling shard (popped from p.waiters under
	// p.mu); must-deliver, like msgUnpark.
	msgPromiseWake
	// msgSignal lands a non-lethal signal on a thread owned by the
	// receiving shard; it joins the target's signal queue (signals
	// never interrupt parks).
	msgSignal
)

// shardMsg is one mailbox entry.
type shardMsg struct {
	kind      shardMsgKind
	t         *Thread
	v         any
	e         exc.Exception
	waiter    *Thread
	waiterSeq uint64
	seq       uint64 // parkSeq (msgWakeWaiter), awaitID (msgAwaitDone), promise id (msgPromiseWake), sender tid (msgSignal)
	dropped   func(v any, e exc.Exception)
	// span and enqNS carry the obs span id and enqueue timestamp of a
	// msgThrowTo/msgSignal across shards (see pendingExc/pendingSig);
	// for msgPromiseWake span is the promise's span.
	span  uint64
	enqNS int64
	// sig is a msgSignal's payload.
	sig Signal
	// cancelled marks a msgPromiseWake for a cancelled promise (the
	// awaiter's KindAwait event carries FlagCancel).
	cancelled bool
}

// threadTable is the striped id → thread map shared by all shards.
type threadTable struct {
	buckets [16]struct {
		mu sync.Mutex
		m  map[ThreadID]*Thread
	}
}

func (tb *threadTable) init() {
	for i := range tb.buckets {
		tb.buckets[i].m = make(map[ThreadID]*Thread)
	}
}

func (tb *threadTable) bucket(id ThreadID) *struct {
	mu sync.Mutex
	m  map[ThreadID]*Thread
} {
	return &tb.buckets[uint64(id)%uint64(len(tb.buckets))]
}

func (tb *threadTable) put(t *Thread) {
	b := tb.bucket(t.id)
	b.mu.Lock()
	b.m[t.id] = t
	b.mu.Unlock()
}

func (tb *threadTable) del(id ThreadID) {
	b := tb.bucket(id)
	b.mu.Lock()
	delete(b.m, id)
	b.mu.Unlock()
}

func (tb *threadTable) get(id ThreadID) *Thread {
	b := tb.bucket(id)
	b.mu.Lock()
	t := b.m[id]
	b.mu.Unlock()
	return t
}

// parkedSnapshot lists parked threads. Only meaningful under global
// quiescence (deadlock detection), when no shard is mutating statuses.
func (tb *threadTable) parkedSnapshot() []*Thread {
	var out []*Thread
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.Lock()
		for _, t := range b.m {
			if t.status == statusParked {
				out = append(out, t)
			}
		}
		b.mu.Unlock()
	}
	return out
}

func (tb *threadTable) clear() {
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.Lock()
		for id := range b.m {
			delete(b.m, id)
		}
		b.mu.Unlock()
	}
}

// engine is the shared state of a parallel run.
type engine struct {
	opts   Options
	shards []*RT
	table  threadTable

	nextTID      atomic.Int64
	nextMVarID   atomic.Uint64
	nextTimerSeq atomic.Uint64
	nextAwaitID  atomic.Uint64

	runnable      atomic.Int64 // threads sitting in some run queue
	msgs          atomic.Int64 // mailbox messages (and external events) in flight
	outstandingIO atomic.Int64
	live          atomic.Int64 // live (unfinished) threads
	now           atomic.Int64 // runtime clock, ns
	steps         atomic.Uint64
	wakeRR        atomic.Uint32

	// idleMu serializes quiesce actors (virtual-clock advance and
	// deadlock detection); the idle entry/exit bookkeeping itself is
	// the lock-free idlers counter.
	idleMu sync.Mutex
	// idlers counts workers inside idleShard's idle path exactly:
	// raised at entry, dropped on every exit. Wake paths skip their
	// channel nudge entirely while it is zero, and the shard whose
	// increment completes the count is the quiesce candidate.
	idlers atomic.Int32

	done chan struct{}
	// stopped mirrors done's closed state as an atomic flag, so the
	// worker hot loop polls one load per iteration instead of a
	// channel select. Set strictly before close(done).
	stopped    atomic.Bool
	finishOnce sync.Once
	result     Result
	runErr     error
	mainThread *Thread

	realEpoch time.Time
}

func (e *engine) fail(err error) {
	e.finishOnce.Do(func() {
		e.runErr = err
		e.stopped.Store(true)
		close(e.done)
	})
}

func (e *engine) finishMain(res Result) {
	e.finishOnce.Do(func() {
		e.result = res
		e.stopped.Store(true)
		close(e.done)
	})
}

func (e *engine) lookup(id ThreadID) *Thread { return e.table.get(id) }

// send enqueues m in to's mailbox and wakes it if it is idling. The
// in-flight counter is raised before the append so the quiescence
// check can never observe a moment where the message is neither
// counted nor delivered. The fast path is a lock-free ring push; the
// mutex-guarded overflow list is entered only when the ring is full —
// and once it is non-empty every producer must follow it (checked
// before the ring), or a later message could overtake an earlier one
// stuck in the overflow and break per-sender FIFO order.
func (e *engine) send(to *RT, m shardMsg) {
	e.msgs.Add(1)
	to.mailN.Add(1)
	if to.mailOverflowed.Load() || !to.mail.push(&m) {
		to.smu.Lock()
		if !to.mailOverflowed.Load() {
			// First overflow of this epoch: fence off the ring tickets
			// already issued — they predate every overflow entry and
			// must be applied first (see processMailbox).
			to.mailFence = to.mail.enq.Load()
			to.mailOverflowed.Store(true)
		}
		to.mailOverflow = append(to.mailOverflow, m)
		to.smu.Unlock()
	}
	if to.idling.Load() {
		to.wake()
	}
}

// wakeIdleSibling nudges an idling shard; used when a shard's queue
// grows beyond one thread so idle siblings come steal. A no-op unless
// some worker is actually parked.
func (e *engine) wakeIdleSibling(except int) {
	n := len(e.shards)
	if n == 1 || e.idlers.Load() == 0 {
		return
	}
	i := int(e.wakeRR.Add(1)) % n
	for j := 0; j < n; j++ {
		s := e.shards[(i+j)%n]
		if s.shardID != except && s.idling.Load() {
			s.wake()
			return
		}
	}
}

// wake nudges this shard's worker out of its idle wait (non-blocking;
// the channel has capacity 1 and a lost signal is healed by the idle
// poll timeout).
func (rt *RT) wake() {
	select {
	case rt.wakeCh <- struct{}{}:
	default:
	}
}

// buildEngine shards the freshly constructed rt across Options.Shards
// workers. Called from NewRT — before the RT can escape to any other
// goroutine — so rt.eng is immutable for the RT's whole lifetime and
// External may read it without synchronization.
func (rt *RT) buildEngine() {
	n := rt.opts.Shards
	e := &engine{opts: rt.opts, done: make(chan struct{})}
	e.table.init()
	if tr := rt.opts.Tracer; tr != nil {
		// A single tracer callback observed from many shards: serialize.
		var mu sync.Mutex
		e.opts.Tracer = func(ev Event) {
			mu.Lock()
			tr(ev)
			mu.Unlock()
		}
	}
	e.shards = make([]*RT, n)
	e.shards[0] = rt
	for i := 1; i < n; i++ {
		s := &RT{
			opts:    e.opts,
			threads: make(map[ThreadID]*Thread),
			rng:     rand.New(rand.NewSource(e.opts.Seed + int64(uint64(i)*0x9E3779B97F4A7C15))),
		}
		s.console = rt.console
		s.bindSimCaps()
		e.shards[i] = s
	}
	rt.opts = e.opts
	ringCap := e.opts.mailboxCap
	if ringCap <= 0 {
		ringCap = 1024
	}
	for i, s := range e.shards {
		s.eng = e
		s.shardID = i
		s.wakeCh = make(chan struct{}, 1)
		s.mail = newMpscRing(ringCap)
		s.obsAttach(i)
	}
}

// runParallel is RunMain for Options.Shards > 1: it runs shard 0's
// worker loop on the calling goroutine and one goroutine per extra
// shard, and returns the main thread's result. The engine itself was
// built by NewRT.
func (rt *RT) runParallel(main Node) (Result, error) {
	e := rt.eng
	if e.opts.Sim != nil {
		// Deterministic simulation: no worker goroutines — a single
		// cooperative driver interleaves the shards (sim.go).
		return rt.runSimulated(main)
	}
	n := len(e.shards)
	e.realEpoch = time.Now()
	rt.realEpoch = e.realEpoch
	e.mainThread = rt.spawn(main, "main", Unmasked, 0)
	rt.mainThread = e.mainThread

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(s *RT) {
			defer wg.Done()
			s.workerLoop()
		}(e.shards[i])
	}
	rt.workerLoop()
	wg.Wait()
	// Rule (Proc GC): once the main thread is finished, all other
	// threads die.
	e.table.clear()
	if e.runErr != nil {
		return Result{}, e.runErr
	}
	return e.result, nil
}

// workerLoop is one shard's scheduler loop: drain messages, run one
// slice of local (or stolen) work, repeat; idle when there is none.
// The steady-state iteration is lock- and channel-free: the stop
// signal, the mailbox, the external-event queue, the run queues and
// the real clock are all probed through atomic flags/counters, and
// the heavier machinery behind each one runs only when its flag says
// there is something to do.
func (rt *RT) workerLoop() {
	e := rt.eng
	zero := rt.shardID == 0
	real := e.opts.Clock == RealClock
	var iter uint
	for {
		if e.stopped.Load() {
			rt.publishStats()
			rt.obsFlush()
			return
		}
		iter++
		if rt.statsReq.Load() || iter&63 == 0 {
			rt.statsReq.Store(false)
			rt.publishStats()
		}
		if zero && rt.extN.Load() > 0 {
			rt.drainExternalShard()
		}
		if rt.mailN.Load() > 0 {
			rt.processMailbox()
		}
		if real && iter&31 == 0 {
			rt.syncRealClockShard()
		}
		t := rt.kept
		rt.kept = nil
		if t == nil {
			if rt.qlen.Load() > 0 {
				t = rt.popLocal()
			}
			if t == nil {
				t = rt.steal()
			}
		}
		if t == nil {
			rt.publishStats()
			rt.obsFlush()
			if err := rt.idleShard(); err != nil {
				e.fail(err)
			}
			continue
		}
		rt.runSliceShard(t)
		rt.obsFlush()
	}
}

// publishStats snapshots this shard's counters under the shard lock so
// other shards can aggregate them race-free. Called on demand (the
// statsReq flag), every 64th loop iteration, and at idle/stop
// boundaries — not every slice.
func (rt *RT) publishStats() {
	rt.smu.Lock()
	rt.statsSnap = rt.stats
	rt.smu.Unlock()
}

// drainExternalShard runs queued External callbacks on shard 0 (the
// serial-mode contract: external closures run inside the scheduler).
// The caller has seen extN > 0; each receive pays the counter back.
func (rt *RT) drainExternalShard() {
	for {
		select {
		case ev := <-rt.events:
			rt.extN.Add(-1)
			ev.f(rt)
			rt.eng.msgs.Add(-1)
		default:
			return
		}
	}
}

// processMailbox applies queued cross-shard messages: pop the ring
// until empty, then — only when producers overflowed — take the
// overflow batch under the shard lock.
//
// Ordering: per-sender FIFO must survive the ring/overflow split. Once
// the overflow flag is up, every producer appends there (send checks
// the flag before the ring), so within an overflow epoch the only
// hazard is a ring message pushed around the moment the flag went up.
// The fence (the ring ticket recorded at flag-raise) resolves it: ring
// tickets below the fence predate every overflow entry and are applied
// first; tickets at or above it were pushed by senders who saw the
// flag down — senders whose earlier messages therefore cannot sit in
// this epoch's batch — so applying them after the batch is safe.
// Claimed-but-unwritten ring slots below the fence are spun out (the
// producer is mid-publish; Gosched hands it the core).
func (rt *RT) processMailbox() {
	e := rt.eng
	// Sample the backlog high water on the consumer side, keeping the
	// producer fast path free of read-modify-write maximum tracking.
	// The sample runs before any pop, so a burst that is fully drained
	// by one call is still observed at its peak.
	if n := uint64(rt.mailN.Load()); n > rt.stats.MailboxDepth {
		rt.stats.MailboxDepth = n
	}
	var m shardMsg
	for {
		st := rt.mail.pop(&m)
		if st == popOK {
			rt.mailN.Add(-1)
			rt.applyMsg(m)
			e.msgs.Add(-1)
			m = shardMsg{}
			continue
		}
		if !rt.mailOverflowed.Load() {
			// popPending: a producer is between its ticket CAS and its
			// publish store; the next loop pass will see the message.
			return
		}
		rt.smu.Lock()
		fence := rt.mailFence
		rt.smu.Unlock()
		if rt.mail.deq < fence {
			// Pre-epoch ring messages remain (the head slot is claimed
			// but not yet written, or newly consumable); wait them out
			// before touching the strictly-younger overflow batch.
			runtime.Gosched()
			continue
		}
		rt.smu.Lock()
		batch := rt.mailOverflow
		rt.mailOverflow = rt.mailSpare[:0]
		rt.mailOverflowed.Store(false)
		rt.smu.Unlock()
		for i := range batch {
			rt.mailN.Add(-1)
			rt.applyMsg(batch[i])
			e.msgs.Add(-1)
		}
		for i := range batch {
			batch[i] = shardMsg{}
		}
		rt.mailSpare = batch[:0]
	}
}

// ownedState reads t's status and park info under the shard lock,
// verifying this shard still owns t. ok=false means t migrated (was
// stolen) and the message must be forwarded to the new owner. When
// ok is true and the status is parked or done, the state is stable:
// only the owner transitions those states, and parked threads are
// never stolen.
func (rt *RT) ownedState(t *Thread) (threadStatus, parkInfo, bool) {
	rt.smu.Lock()
	if t.owner.Load() != rt {
		rt.smu.Unlock()
		return 0, parkInfo{}, false
	}
	st, pk := t.status, t.park
	rt.smu.Unlock()
	return st, pk, true
}

// applyMsg handles one mailbox message on the owning shard.
func (rt *RT) applyMsg(m shardMsg) {
	e := rt.eng
	if s := rt.opts.Sim; s != nil {
		var tid ThreadID
		if m.t != nil {
			tid = m.t.id
		}
		s.Observe(SimEvent{Kind: SimMsg, Shard: uint8(rt.shardID), A: uint32(m.kind), B: uint64(tid)})
	}
	switch m.kind {
	case msgThrowTo:
		if !rt.deliverLocal(m.t, pendingExc{e: m.e, waiter: m.waiter, waiterSeq: m.waiterSeq, span: m.span, enqNS: m.enqNS}) {
			e.send(m.t.owner.Load(), m)
		}

	case msgUnpark:
		// A committed handoff: the thread stays parked until this
		// message arrives — nothing else may have resumed it. The
		// ownership check, park-state check, status flip and run-queue
		// push run in ONE shard-lock critical section (the two-message
		// ping-pong hot path), instead of ownedState + enqueueShard's
		// separate acquisitions.
		t := m.t
		rt.smu.Lock()
		if t.owner.Load() != rt {
			rt.smu.Unlock()
			e.send(t.owner.Load(), m)
			return
		}
		if t.status != statusParked {
			rt.smu.Unlock()
			return
		}
		switch t.park.kind {
		case parkTakeMVar, parkPutMVar, parkGetChar:
			rt.unparkQueuedLocked(t, &retNode{m.v})
		default:
			rt.smu.Unlock()
		}

	case msgWakeWaiter:
		t := m.t
		rt.smu.Lock()
		if t.owner.Load() != rt {
			rt.smu.Unlock()
			e.send(t.owner.Load(), m)
			return
		}
		if t.status == statusParked && t.park.kind == parkThrowTo && t.parkSeq == m.seq {
			rt.unparkQueuedLocked(t, unitRet)
		} else {
			rt.smu.Unlock()
		}

	case msgWithdraw:
		rt.smu.Lock()
		if m.t.owner.Load() != rt {
			rt.smu.Unlock()
			e.send(m.t.owner.Load(), m)
			return
		}
		tgt := m.t
		for i := range tgt.pending {
			if tgt.pending[i].waiter == m.waiter {
				copy(tgt.pending[i:], tgt.pending[i+1:])
				tgt.pending[len(tgt.pending)-1] = pendingExc{}
				tgt.pending = tgt.pending[:len(tgt.pending)-1]
				break
			}
		}
		rt.smu.Unlock()

	case msgAdopt:
		// Owned by this shard from birth and never enqueued anywhere, so
		// no ownership re-check is needed: nothing can have stolen it.
		rt.enqueue(m.t)

	case msgPromiseWake:
		// A committed promise wakeup: the waiter was popped from
		// p.waiters under p.mu and stays parked until this message
		// arrives — nothing else may have resumed it (mirrors
		// msgUnpark).
		t := m.t
		rt.smu.Lock()
		if t.owner.Load() != rt {
			rt.smu.Unlock()
			e.send(t.owner.Load(), m)
			return
		}
		if t.status != statusParked || t.park.kind != parkPromise {
			rt.smu.Unlock()
			return
		}
		rt.obsAwait(t.id, uint8(t.mask), m.span, m.seq, m.cancelled)
		rt.stats.Awaits++
		rt.unparkQueuedLocked(t, promiseOutcome(m.v, m.e))

	case msgSignal:
		s := pendingSig{sig: m.sig, from: ThreadID(m.seq), span: m.span, enqNS: m.enqNS}
		if !rt.signalLocal(m.t, s) {
			e.send(m.t.owner.Load(), m)
		}

	case msgAwaitDone:
		st, pk, ok := rt.ownedState(m.t)
		if !ok {
			e.send(m.t.owner.Load(), m)
			return
		}
		e.outstandingIO.Add(-1)
		if st != statusParked || pk.kind != parkAwait || pk.awaitID != m.seq {
			if m.dropped != nil {
				m.dropped(m.v, m.e)
			}
			return
		}
		t := m.t
		if m.e != nil {
			rt.obsUnpark(t)
			t.status = statusRunnable
			t.park = parkInfo{}
			t.cur = &throwNode{m.e}
			rt.enqueue(t)
			rt.trace(EvUnpark{Thread: t.id})
			return
		}
		rt.unparkWithValue(t, m.v)
	}
}

// unparkQueuedLocked finishes an owner-side unpark with rt.smu already
// held: it makes t runnable with continuation cur, pushes it on the run
// queue, and releases the lock. The counter bump, sibling wake and
// trace run after the release (the tracer mutex must never nest inside
// smu). Mirrors unparkWithValue + enqueueShard fused into the caller's
// critical section.
func (rt *RT) unparkQueuedLocked(t *Thread, cur Node) {
	rt.obsUnpark(t)
	t.status = statusRunnable
	t.park = parkInfo{}
	t.cur = cur
	rt.runq.pushBack(t)
	n := rt.runq.Len()
	rt.qlen.Store(int32(n))
	rt.smu.Unlock()
	rt.eng.runnable.Add(1)
	if n > 1 {
		rt.eng.wakeIdleSibling(rt.shardID)
	}
	rt.trace(EvUnpark{Thread: t.id})
}

// enqueueShard pushes t on this shard's run queue.
func (rt *RT) enqueueShard(t *Thread) {
	rt.smu.Lock()
	rt.runq.pushBack(t)
	n := rt.runq.Len()
	rt.qlen.Store(int32(n))
	rt.smu.Unlock()
	rt.eng.runnable.Add(1)
	if n > 1 {
		rt.eng.wakeIdleSibling(rt.shardID)
	}
}

// popLocal pops the next runnable thread from this shard's queue. The
// hot loop guards the call with a lock-free qlen probe, so the lock is
// taken only when the queue is believed non-empty.
func (rt *RT) popLocal() *Thread {
	rt.smu.Lock()
	for rt.runq.Len() > 0 {
		if rt.opts.RandomSched {
			rt.runq.swap(0, rt.rng.Intn(rt.runq.Len()))
		}
		t := rt.runq.popFront()
		rt.qlen.Store(int32(rt.runq.Len()))
		rt.eng.runnable.Add(-1)
		if t.status == statusRunnable {
			rt.smu.Unlock()
			return t
		}
	}
	rt.smu.Unlock()
	return nil
}

// steal takes one runnable thread from the tail of a sibling's queue,
// transferring ownership. The owner pointer changes under the victim's
// shard lock, so any shard that verified ownership under its own lock
// can rely on it until that lock is released.
func (rt *RT) steal() *Thread {
	e := rt.eng
	n := len(e.shards)
	if n == 1 {
		return nil
	}
	start := rt.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := e.shards[(start+i)%n]
		if v == rt || v.qlen.Load() == 0 {
			// Lock-free probe: do not touch a victim whose queue is
			// (momentarily) empty.
			continue
		}
		v.smu.Lock()
		t := v.runq.popBack()
		if t != nil && t.pinned {
			// ForkOn affinity: pinned threads stay on their placement
			// shard; put it back and give up on this victim.
			v.runq.pushBack(t)
			t = nil
		}
		if t != nil {
			v.qlen.Store(int32(v.runq.Len()))
			t.owner.Store(rt)
			t.rt = rt
			v.smu.Unlock()
			e.runnable.Add(-1)
			rt.stats.Steals++
			rt.trace(EvSteal{Thread: t.id, From: v.shardID, To: rt.shardID})
			rt.obsSteal(t, v.shardID, rt.shardID)
			return t
		}
		v.smu.Unlock()
	}
	return nil
}

// runSliceShard runs t for one time slice on this shard, charging the
// steps against the engine-wide budget.
func (rt *RT) runSliceShard(t *Thread) {
	e := rt.eng
	t.sliceLeft = rt.opts.TimeSlice
	before := rt.stats.Steps
	for t.sliceLeft > 0 && t.status == statusRunnable {
		t.sliceLeft--
		rt.step(t)
	}
	if e.opts.MaxSteps > 0 && e.steps.Add(rt.stats.Steps-before) >= e.opts.MaxSteps {
		e.fail(ErrFuelExhausted)
	}
	if t.status == statusRunnable {
		rt.stats.Preemptions++
		if rt.qlen.Load() == 0 && !rt.opts.RandomSched && rt.opts.Sim == nil {
			// Run-queue bypass: the shard's sole runnable thread stays
			// in hand for the next slice instead of round-tripping
			// through the locked queue. It remains the shard's thread
			// for delivery purposes (deliverLocal checks owner and
			// status, not queue membership), and the shard never idles
			// while holding it, so quiescence still implies no kept
			// threads anywhere. Disabled under RandomSched: the bypass
			// skips popLocal's rng draw, which would shift the seeded
			// random-schedule stream that chaos tests replay.
			rt.kept = t
		} else {
			rt.enqueue(t)
		}
	}
}

// syncRealClockShard advances the engine clock to wall time and fires
// this shard's due timers (RealClock mode). The heap lock is skipped
// entirely when the shard holds no timers (the timerN probe); the
// worker loop additionally amortizes the call to every 32nd iteration.
func (rt *RT) syncRealClockShard() {
	e := rt.eng
	now := int64(time.Since(e.realEpoch))
	for {
		cur := e.now.Load()
		if now <= cur {
			break
		}
		if e.now.CompareAndSwap(cur, now) {
			break
		}
	}
	if rt.timerN.Load() == 0 {
		return
	}
	cur := e.now.Load()
	rt.smu.Lock()
	due := rt.popDueTimersLocked(cur)
	rt.smu.Unlock()
	for _, t := range due {
		rt.unparkWithValue(t, UnitValue)
	}
}

// popDueTimersLocked pops this shard's live timer entries with deadline
// <= now; caller holds the shard lock and unparks the returned threads
// after releasing it.
func (rt *RT) popDueTimersLocked(now int64) []*Thread {
	var due []*Thread
	for rt.timers.Len() > 0 && rt.timers.peek().at <= now {
		en := heap.Pop(&rt.timers).(timerEntry)
		rt.timerN.Add(-1)
		if en.live.Load() {
			en.live.Store(false)
			due = append(due, en.t)
		}
	}
	return due
}

// nextTimerAtLocked returns this shard's earliest live deadline; caller
// holds the shard lock.
func (rt *RT) nextTimerAtLocked() (int64, bool) {
	for rt.timers.Len() > 0 {
		en := rt.timers.peek()
		if en.live.Load() {
			return en.at, true
		}
		heap.Pop(&rt.timers)
		rt.timerN.Add(-1)
	}
	return 0, false
}

// hasWork reports whether this worker has anything actionable: a
// finished run, local runnable work (or a kept thread), pending
// mailbox or external messages, or a sibling with queued threads to
// steal. All probes are lock-free.
func (rt *RT) hasWork() bool {
	e := rt.eng
	if e.stopped.Load() || rt.kept != nil || rt.qlen.Load() > 0 || rt.mailN.Load() > 0 {
		return true
	}
	if rt.shardID == 0 && rt.extN.Load() > 0 {
		return true
	}
	for _, s := range e.shards {
		if s != rt && s.qlen.Load() > 0 {
			return true
		}
	}
	return false
}

// idleShard parks the worker until woken. The shard that brings the
// idle count to n (all shards idle) with no messages or runnable work
// in flight is the "last man standing": it alone advances virtual time
// or runs deadlock detection, mirroring the serial idle() decision
// tree under global quiescence.
//
// Before parking the worker spins briefly with Gosched: in a cross-
// shard ping-pong the reply is usually instants away, and on a
// machine with fewer cores than shards the yield is what lets the
// peer produce it. The park itself is guarded by the idling flag
// (Dekker-paired with every producer-side wake) and uses a reusable
// timer whose poll doubles as the lost-wake heal.
func (rt *RT) idleShard() error {
	e := rt.eng
	if e.opts.Clock == RealClock {
		// Keep the clock fresh and fire due timers promptly while idle
		// (the busy loop amortizes this to every 32nd iteration).
		rt.syncRealClockShard()
	}
	for spin := 0; spin < 4; spin++ {
		if rt.hasWork() {
			return nil
		}
		runtime.Gosched()
	}
	// The idlers counter mirrors "shards inside the idle path" exactly:
	// raised here, dropped on every exit. Only the shard whose increment
	// completes the count — the candidate last man standing — pays for
	// the quiesce lock; everyone else parks lock-free. In-flight work
	// cannot be missed: a producer raises msgs/runnable before waking
	// its target, so either this check sees the counter non-zero or the
	// target shard is woken, re-enters, and re-triggers the check. The
	// 200µs poll below re-triggers it too, healing any remaining race.
	n := int32(len(e.shards))
	if e.idlers.Add(1) == n && e.msgs.Load() == 0 && e.runnable.Load() == 0 {
		e.idleMu.Lock()
		var acted bool
		var qerr error
		// Re-verify under the lock: a sibling may have left the idle
		// path, or new work may have been raised, since the probe.
		if e.idlers.Load() == n && e.msgs.Load() == 0 && e.runnable.Load() == 0 {
			acted, qerr = rt.quiesceLocked()
		}
		e.idleMu.Unlock()
		if qerr != nil || acted {
			e.idlers.Add(-1)
			return qerr
		}
	}
	rt.idling.Store(true)
	// Dekker pairing: producers raise mailN/extN/qlen first and then
	// check idling; we set idling first and then re-check the
	// counters. Whatever the interleaving, either they see idling and
	// wake us or we see their work and refuse to park.
	if rt.hasWork() {
		rt.idling.Store(false)
		e.idlers.Add(-1)
		return nil
	}
	wait := 200 * time.Microsecond
	if e.opts.Clock == RealClock {
		wait = time.Millisecond
		if rt.timerN.Load() > 0 {
			rt.smu.Lock()
			if at, ok := rt.nextTimerAtLocked(); ok {
				if d := time.Duration(at - e.now.Load()); d < wait {
					if d < 0 {
						d = 0
					}
					wait = d
				}
			}
			rt.smu.Unlock()
		}
	}
	if rt.idleTimer == nil {
		rt.idleTimer = time.NewTimer(wait)
	} else {
		rt.idleTimer.Reset(wait)
	}
	select {
	case <-rt.wakeCh:
		rt.idleTimer.Stop()
	case <-e.done:
		rt.idleTimer.Stop()
	case <-rt.idleTimer.C:
	}
	rt.idling.Store(false)
	e.idlers.Add(-1)
	return nil
}

// quiesceLocked runs with the idle lock held on the last idle shard
// under global quiescence. It returns acted=true when it changed state
// (advanced time or injected BlockedIndefinitely) so the caller should
// re-enter its loop instead of sleeping.
func (rt *RT) quiesceLocked() (bool, error) {
	e := rt.eng
	if e.opts.Clock == VirtualClock && e.outstandingIO.Load() == 0 {
		if at, ok := e.earliestTimer(); ok {
			from := e.now.Load()
			e.now.Store(at)
			rt.stats.TimeAdvances++
			rt.trace(EvTimeAdvance{FromNS: from, ToNS: at})
			rt.fireAllTimers(at)
			return true, nil
		}
	}
	if e.opts.Clock == RealClock {
		if _, ok := e.earliestTimer(); ok {
			// Real timers are waited out by idleShard's timed sleep.
			return false, nil
		}
	}
	if e.outstandingIO.Load() > 0 {
		return false, nil
	}
	if e.opts.Clock == VirtualClock {
		if _, ok := e.earliestTimer(); ok {
			// Timers exist but I/O is outstanding (checked above): the
			// serial loop waits for the completion rather than advancing
			// past it; unreachable here because outstandingIO == 0, but
			// kept for symmetry.
			_ = ok
		}
	}
	if rt.console.waitingReaders() {
		// Parked getChar readers with input not closed: the environment
		// may still inject input, so this is a wait, not a deadlock.
		return false, nil
	}
	return true, rt.parallelDeadlock()
}

// earliestTimer scans every shard's heap for the earliest live timer.
func (e *engine) earliestTimer() (int64, bool) {
	best := int64(0)
	ok := false
	for _, s := range e.shards {
		s.smu.Lock()
		if at, live := s.nextTimerAtLocked(); live && (!ok || at < best) {
			best, ok = at, true
		}
		s.smu.Unlock()
	}
	return best, ok
}

// fireAllTimers pops due entries from every shard's heap and adopts the
// sleepers onto the calling shard (safe under global quiescence; work
// stealing rebalances afterwards).
func (rt *RT) fireAllTimers(now int64) {
	var due []*Thread
	for _, s := range rt.eng.shards {
		s.smu.Lock()
		due = append(due, s.popDueTimersLocked(now)...)
		s.smu.Unlock()
	}
	sortThreadsByID(due)
	for _, t := range due {
		t.owner.Store(rt)
		t.rt = rt
		rt.unparkWithValue(t, UnitValue)
	}
}

// parallelDeadlock is deadlock() under global quiescence: every shard
// is idle, no messages or I/O are in flight, and no timer can fire.
// The detecting shard adopts every parked thread and wakes it with
// BlockedIndefinitely, exactly as the serial detector does.
func (rt *RT) parallelDeadlock() error {
	e := rt.eng
	if !e.opts.DetectDeadlock {
		return ErrDeadlock
	}
	stuck := e.table.parkedSnapshot()
	if len(stuck) == 0 {
		return ErrDeadlock
	}
	sortThreadsByID(stuck)
	ids := make([]ThreadID, len(stuck))
	for i, t := range stuck {
		ids[i] = t.id
	}
	rt.stats.Deadlocks++
	rt.trace(EvDeadlock{Threads: ids})
	for _, t := range stuck {
		t.owner.Store(rt)
		t.rt = rt
		span, enqNS := rt.obsEnqueue(t.id, 0, exc.BlockedIndefinitely{}, obs.MaskUnknown, obs.FlagDeadlock)
		rt.interruptStuck(t, pendingExc{e: exc.BlockedIndefinitely{}, span: span, enqNS: enqNS}, false)
	}
	return nil
}

// ShardStats returns one Stats snapshot per shard ([1]Stats in serial
// mode). In parallel mode every shard's counters — including the
// calling shard's own — are read from the snapshot each worker
// publishes under its shard lock, so ShardStats is safe from any
// goroutine while shards run. Publication is copy-on-demand: each read
// raises the shard's statsReq flag so the worker refreshes its
// snapshot at the next loop iteration (busy workers also publish every
// 64th iteration and at idle/stop boundaries — an idle shard's
// snapshot is already current, since it published on the way in and
// runs no steps while parked). Mid-run reads may therefore lag
// slightly; counters remain monotonic. (Worker-context readers that
// need current-slice freshness publish their own shard first: see the
// getStats family of primitives.)
func (rt *RT) ShardStats() []Stats {
	if rt.eng == nil {
		return []Stats{rt.stats}
	}
	out := make([]Stats, len(rt.eng.shards))
	for i, s := range rt.eng.shards {
		s.statsReq.Store(true)
		if s.idling.Load() {
			s.wake()
		}
		s.smu.Lock()
		out[i] = s.statsSnap
		s.smu.Unlock()
	}
	return out
}

// Shards returns the number of shards the runtime executes on.
func (rt *RT) Shards() int {
	if rt.eng == nil {
		return 1
	}
	return len(rt.eng.shards)
}
