package sched

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// This file implements the execution engine: the runtime sharded across
// Options.Shards shards, each owning a run queue, a timer heap and a
// mailbox, with work stealing for load balance. One shard is the
// default; each further shard adds a worker goroutine. The design
// follows the multicore GHC RTS (per-capability run queues + stealing)
// and Erlang's schedulers (cross-scheduler signals as messages), chosen
// so the paper's delivery semantics carry over unchanged:
//
//   - A thread is owned by exactly one shard at a time; only the owner
//     steps it or transitions its status. Ownership moves only when a
//     thief pops a runnable thread from a victim's run queue (under the
//     victim's shard lock), so a thread's interpreter steps still form
//     a single total order and rule (Receive) keeps firing only at
//     redex boundaries of that order.
//   - Anything another shard wants done to a thread — landing a
//     throwTo, resuming a parked thread — travels as a mailbox message
//     to the owner, processed between time slices. Delivery points are
//     therefore the same at every shard count.
//   - MVar, console and promise handoffs commit under the object's
//     lock: popping a waiter from a wait queue commits its wakeup. An
//     interrupt that loses this race (rule Interrupt vs. an in-flight
//     committed wakeup) appends the exception to the thread's pending
//     queue instead, which is precisely §5.3's "right up until the
//     point when it acquires the MVar" — the acquisition has happened,
//     so the exception waits for the next delivery point.
//
// At one shard every lock is uncontended and every wakeup is local;
// the idle path skips the sibling spin and stealing finds no victims.

// shardMsgKind enumerates cross-shard mailbox messages.
type shardMsgKind uint8

const (
	// msgThrowTo lands an asynchronous exception on a thread owned by
	// the receiving shard; v is the *pendingExc (with the §9
	// synchronous waiter, if any).
	msgThrowTo shardMsgKind = iota
	// msgResume resumes thread t out of park episode seq (its parkSeq
	// when the wakeup was decided). It is the one resume message: a
	// committed MVar/console/promise handoff (v is the handed value;
	// a promise awaiter reads its settled promise), a synchronous
	// thrower's wake, and an await completion (v is an *awaitDone). A
	// message whose episode has ended is dropped; see resume.
	msgResume
	// msgWithdraw removes an interrupted synchronous thrower's
	// in-flight exception from t's pending queue; v is the thrower.
	msgWithdraw
	// msgAdopt enqueues a freshly spawned thread on the shard it was
	// pinned to (ForkOn): the thread was created already owned by the
	// receiver and has never been in any run queue.
	msgAdopt
	// msgSignal lands a non-lethal signal on a thread owned by the
	// receiving shard; v is the *pendingSig. It joins the target's
	// signal queue (signals never interrupt parks).
	msgSignal
)

// shardMsg is one mailbox entry; every MPSC ring slot holds one, so it
// is kept to four words. Payloads too big for v travel behind a
// pointer.
type shardMsg struct {
	t    *Thread
	v    any
	seq  uint64
	kind shardMsgKind
}

// awaitDone is an external completion travelling in a msgResume: the
// result, and the handler that reclaims it when the awaiter has moved
// on.
type awaitDone struct {
	v       any
	e       exc.Exception
	dropped func(v any, e exc.Exception)
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

// each calls f on every live thread, bucket by bucket under the bucket
// lock.
func (tb *threadTable) each(f func(t *Thread)) {
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.Lock()
		for _, t := range b.m {
			f(t)
		}
		b.mu.Unlock()
	}
}

func (tb *threadTable) clear() {
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.Lock()
		clear(b.m)
		b.mu.Unlock()
	}
}

// engine is the state the shards of one runtime share.
type engine struct {
	opts   Options
	shards []*RT
	table  threadTable

	nextTID      atomic.Int64
	nextMVarID   atomic.Uint64
	nextTimerSeq atomic.Uint64

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
	// idleExits counts exits from the idle path (bumped before idlers
	// drops), so a quiescence check can tell that no shard left idle —
	// and so none applied any work — while it read the counters.
	idleExits atomic.Uint64

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

// workerLoop is one shard's scheduler loop: take turns, idle when a
// turn finds no work. The steady-state iteration is lock- and
// channel-free: the stop signal, the mailbox, the external-event
// queue, the run queues and the real clock are all probed through
// atomic flags/counters, and the heavier machinery behind each one
// runs only when its flag says there is something to do.
func (rt *RT) workerLoop() {
	e := rt.eng
	real := e.opts.Clock == RealClock
	var iter uint
	for !e.stopped.Load() {
		iter++
		if rt.statsReq.Load() || iter&63 == 0 {
			rt.statsReq.Store(false)
			rt.publishStats()
		}
		if real && iter&31 == 0 {
			rt.syncRealClock()
		}
		if !rt.turn() {
			rt.publishStats()
			rt.obsFlush()
			if err := rt.idleShard(); err != nil {
				e.fail(err)
			}
		}
	}
	rt.publishStats()
	rt.obsFlush()
}

// turn is one scheduler iteration on this shard: apply external events
// and mailbox messages, then run one time slice of the kept, a local
// or a stolen thread. It reports false when there was nothing to run.
// The live worker loop and the simulation driver both step shards only
// through turn.
func (rt *RT) turn() bool {
	if rt.extN.Load() > 0 || len(rt.simExt) > 0 {
		rt.drainExternal()
	}
	if rt.mailN.Load() > 0 {
		rt.processMailbox()
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
		if t == nil {
			return false
		}
	}
	rt.runSlice(t)
	rt.obsFlush()
	return true
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

// drainExternal runs queued External callbacks (shard 0 only; the
// caller has seen extN > 0 or a held-back event). Each receive pays
// the extN counter back, and each application the msgs counter. Under
// simulation the queue is moved into the hold-back buffer first and
// the callbacks run one at a time in source-chosen order: replay
// forces the recorded arrival order, recording keeps FIFO and logs the
// labels.
func (rt *RT) drainExternal() {
	src := rt.opts.Sim
	for {
		select {
		case ev := <-rt.events:
			rt.extN.Add(-1)
			if src == nil {
				ev.f(rt)
				rt.eng.msgs.Add(-1)
			} else {
				rt.simExt = append(rt.simExt, ev)
			}
			continue
		default:
		}
		if len(rt.simExt) == 0 {
			return
		}
		idx := 0
		if rt.simPick && len(rt.simExt) > 1 {
			labels := make([]uint64, len(rt.simExt))
			for i := range rt.simExt {
				labels[i] = rt.simExt[i].label
			}
			if p := src.PickExternal(labels); p >= 0 && p < len(rt.simExt) {
				idx = p
			}
		}
		n := len(rt.simExt)
		ev := rt.simExt[idx]
		copy(rt.simExt[idx:], rt.simExt[idx+1:])
		rt.simExt[n-1] = extEvent{}
		rt.simExt = rt.simExt[:n-1]
		src.Observe(SimEvent{Kind: SimExternal, Shard: uint8(rt.shardID), A: uint32(n), B: ev.label})
		ev.f(rt)
		rt.eng.msgs.Add(-1)
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
		clear(batch)
		rt.mailSpare = batch[:0]
	}
}

// applyMsg handles one mailbox message on the receiving shard. Every
// kind re-checks ownership under the shard lock and forwards the
// message when the thread has migrated.
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
		if !rt.deliverLocal(m.t, *m.v.(*pendingExc)) {
			e.send(m.t.owner.Load(), m)
		}

	case msgResume:
		rt.resume(m.t, m.seq, m.v)

	case msgWithdraw:
		rt.smu.Lock()
		if own := m.t.owner.Load(); own != rt {
			rt.smu.Unlock()
			e.send(own, m)
			return
		}
		m.t.withdraw(m.v.(*Thread))
		rt.smu.Unlock()

	case msgAdopt:
		// Owned by this shard from birth and never enqueued anywhere, so
		// no ownership re-check is needed: nothing can have stolen it.
		rt.enqueue(m.t)

	case msgSignal:
		if !rt.signalLocal(m.t, *m.v.(*pendingSig)) {
			e.send(m.t.owner.Load(), m)
		}
	}
}

// resume is the one wakeup path: it makes t runnable again if t is
// still in park episode seq, on this shard when it owns t and as a
// msgResume to its owner otherwise (the owner calls resume again). The
// ownership check, episode check, status flip and run-queue push run
// in one shard-lock critical section.
//
// A committed handoff (the thread was popped from an MVar, console or
// promise wait queue) always finds its episode current: the thread
// stays parked until this call, because an interrupt can no longer
// detach it. Droppable wakes — a synchronous thrower's, an await
// completion's — find it ended when the thread was interrupted and has
// moved on. The thread resumes with:
//
//   - an *awaitDone v: the completion's value or exception. Its
//     outstanding-I/O count is paid back here whether or not the
//     episode is current, and a stale result goes to its dropped
//     handler.
//   - a parked promise awaiter: the settled promise's outcome.
//   - otherwise: return v.
func (rt *RT) resume(t *Thread, seq uint64, v any) {
	rt.smu.Lock()
	if own := t.owner.Load(); own != rt {
		rt.smu.Unlock()
		rt.eng.send(own, shardMsg{kind: msgResume, t: t, seq: seq, v: v})
		return
	}
	aw, isAwait := v.(*awaitDone)
	if isAwait {
		rt.eng.outstandingIO.Add(-1)
	}
	if t.status != statusParked || t.parkSeq != seq {
		rt.smu.Unlock()
		if isAwait && aw.dropped != nil {
			aw.dropped(aw.v, aw.e)
		}
		return
	}
	if rt.simDropUnpark(t) {
		// Mutation seam (IpDropUnpark): lose the wakeup; the thread
		// stays parked forever. Seeded bug for the mutation suite.
		rt.smu.Unlock()
		return
	}
	var cur Node
	switch {
	case isAwait:
		cur = promiseOutcome(aw.v, aw.e)
	case t.park.kind == parkPromise:
		p := t.park.pr
		rt.obsAwait(t.id, uint8(t.mask), p.span, p.id, p.state == promiseCancelled)
		rt.stats.Awaits++
		cur = promiseOutcome(p.val, p.exc)
	default:
		cur = &retNode{v}
	}
	rt.unparkQueuedLocked(t, cur)
}

// unparkQueuedLocked finishes an owner-side unpark with rt.smu already
// held: it makes t runnable with continuation cur, pushes it on the run
// queue, and releases the lock. The counter bump, sibling wake and
// trace run after the release (the tracer mutex must never nest inside
// smu).
func (rt *RT) unparkQueuedLocked(t *Thread, cur Node) {
	rt.obsUnpark(t)
	t.status = statusRunnable
	t.park = parkInfo{}
	t.cur = cur
	rt.runq.pushBack(t)
	n := rt.runq.Len()
	rt.qlen.Store(int32(n))
	rt.smu.Unlock()
	if n > 1 {
		rt.eng.wakeIdleSibling(rt.shardID)
	}
	rt.trace(EvUnpark{Thread: t.id})
}

// enqueue pushes t on this shard's run queue.
func (rt *RT) enqueue(t *Thread) {
	rt.smu.Lock()
	rt.runq.pushBack(t)
	n := rt.runq.Len()
	rt.qlen.Store(int32(n))
	rt.smu.Unlock()
	if n > 1 {
		rt.eng.wakeIdleSibling(rt.shardID)
	}
}

// popLocal pops the next runnable thread from this shard's queue:
// round-robin by default; with Options.RandomSched the fair shuffle (a
// uniformly chosen queued thread is swapped to the front and popped).
// Under simulation the source may force that index (replay), and every
// pick taken is observed (recording); a -1 answer draws the shard's own
// seeded rng, exactly as an unrecorded run would. The hot loop guards
// the call with a lock-free qlen probe, so the lock is taken only when
// the queue is believed non-empty.
func (rt *RT) popLocal() *Thread {
	rt.smu.Lock()
	for rt.runq.Len() > 0 {
		if rt.opts.RandomSched {
			qlen := rt.runq.Len()
			idx := -1
			if rt.simPick {
				idx = rt.opts.Sim.PickRun(rt.shardID, qlen)
			}
			if idx < 0 || idx >= qlen {
				idx = rt.rng.Intn(qlen)
			}
			rt.runq.swap(0, idx)
			rt.simObserve(SimEvent{Kind: SimPickRun, Shard: uint8(rt.shardID), A: uint32(qlen), B: uint64(idx)})
		}
		t := rt.runq.popFront()
		rt.qlen.Store(int32(rt.runq.Len()))
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
// can rely on it until that lock is released. Victims are tried in
// cyclic order from a seeded start; under simulation the source may
// force the first victim (PickSteal), only that one is tried, and the
// attempt — success or pinned-tail failure — is observed.
func (rt *RT) steal() *Thread {
	e := rt.eng
	n := len(e.shards)
	var mask uint32 // candidate victims, for the simulation seam (≤ 32 shards)
	found := false
	for i, s := range e.shards {
		if s != rt && s.qlen.Load() > 0 {
			found = true
			mask |= 1 << uint(i&31)
		}
	}
	if !found {
		return nil
	}
	src := rt.opts.Sim
	start := -1
	if rt.simPick {
		if start = src.PickSteal(rt.shardID, mask); start == -2 {
			return nil
		}
	}
	if start < 0 || start >= n || mask&(1<<uint(start)) == 0 {
		start = rt.rng.Intn(n)
	}
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
		}
		v.smu.Unlock()
		if src != nil {
			var tid uint64
			if t != nil {
				tid = uint64(t.id)
			}
			src.Observe(SimEvent{Kind: SimSteal, Shard: uint8(rt.shardID), A: mask, B: uint64(v.shardID+1)<<48 | tid})
		}
		if t != nil {
			rt.stats.Steals++
			rt.trace(EvSteal{Thread: t.id, From: v.shardID, To: rt.shardID})
			rt.obsSteal(t, v.shardID, rt.shardID)
			return t
		}
		if src != nil {
			return nil
		}
	}
	return nil
}

// syncRealClock advances the engine clock to wall time and fires this
// shard's due timers (RealClock mode). The heap lock is skipped
// entirely when the shard holds no timers (the timerN probe); the
// worker loop additionally amortizes the call to every 32nd iteration.
func (rt *RT) syncRealClock() {
	e := rt.eng
	now := int64(time.Since(e.realEpoch))
	for {
		cur := e.now.Load()
		if now <= cur || e.now.CompareAndSwap(cur, now) {
			break
		}
	}
	if rt.timerN.Load() == 0 {
		return
	}
	rt.smu.Lock()
	rt.due = rt.popDueTimersLocked(e.now.Load(), rt.due[:0])
	rt.smu.Unlock()
	rt.fireDue()
}

// popDueTimersLocked appends this shard's live timer entries with
// deadline <= now to due, in (deadline, seq) order; caller holds the
// shard lock.
func (rt *RT) popDueTimersLocked(now int64, due []timerEntry) []timerEntry {
	for rt.timers.Len() > 0 && rt.timers.peek().at <= now {
		en := heap.Pop(&rt.timers).(timerEntry)
		rt.timerN.Add(-1)
		if en.live.Load() {
			en.live.Store(false)
			due = append(due, en)
		}
	}
	return due
}

// fireDue wakes the sleepers in rt.due (rule Sleep: each resumes with
// return ()), adopting them onto this shard first: under global
// quiescence fireAllTimers collects every shard's due timers here, and
// work stealing rebalances afterwards.
func (rt *RT) fireDue() {
	for i, en := range rt.due {
		t := en.t
		t.owner.Store(rt)
		t.rt = rt
		rt.resume(t, t.parkSeq, UnitValue)
		rt.due[i] = timerEntry{}
	}
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
	if e.stopped.Load() || rt.kept != nil || rt.qlen.Load() > 0 || rt.mailN.Load() > 0 || rt.extN.Load() > 0 {
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
// idle count to n (all shards idle) is the "last man standing": if the
// engine is quiescent it alone advances virtual time or runs deadlock
// detection (quiesce).
//
// With siblings, the worker first spins briefly with Gosched: in a
// cross-shard ping-pong the reply is usually instants away, and on a
// machine with fewer cores than shards the yield is what lets the peer
// produce it. A single shard has no sibling to yield to and skips the
// spin. The park itself is guarded by the idling flag (Dekker-paired
// with every producer-side wake) and uses a reusable timer whose poll
// doubles as the lost-wake heal.
func (rt *RT) idleShard() error {
	e := rt.eng
	n := int32(len(e.shards))
	if e.opts.Clock == RealClock {
		// Keep the clock fresh and fire due timers promptly while idle
		// (the busy loop amortizes this to every 32nd iteration).
		rt.syncRealClock()
	}
	for spin := 0; n > 1 && spin < 4; spin++ {
		if rt.hasWork() {
			return nil
		}
		runtime.Gosched()
	}
	// The idlers counter mirrors "shards inside the idle path" exactly:
	// raised here, dropped on every exit. Only the shard whose increment
	// completes the count — the candidate last man standing — pays for
	// the quiesce lock; everyone else parks lock-free. In-flight work
	// cannot be missed: a producer raises msgs or a queue length before waking
	// its target, so either the quiescence check sees the counter
	// non-zero or the target shard is woken, re-enters, and re-triggers
	// the check. The poll below re-triggers it too, healing any
	// remaining race.
	if e.idlers.Add(1) == n {
		e.idleMu.Lock()
		var acted bool
		var err error
		if io, ok := e.quiescent(n); ok {
			acted, err = rt.quiesce(io)
		}
		e.idleMu.Unlock()
		if err != nil || acted {
			e.leaveIdle()
			return err
		}
	}
	rt.idling.Store(true)
	// Dekker pairing: producers raise mailN/extN/qlen first and then
	// check idling; we set idling first and then re-check the
	// counters. Whatever the interleaving, either they see idling and
	// wake us or we see their work and refuse to park.
	if rt.hasWork() {
		rt.idling.Store(false)
		e.leaveIdle()
		return nil
	}
	wait := 200 * time.Microsecond
	if e.opts.Clock == RealClock {
		wait = time.Millisecond
		if rt.timerN.Load() > 0 {
			rt.smu.Lock()
			if at, ok := rt.nextTimerAtLocked(); ok {
				wait = min(wait, max(time.Duration(at-e.now.Load()), 0))
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
	e.leaveIdle()
	return nil
}

// leaveIdle records an exit from the idle path.
func (e *engine) leaveIdle() {
	e.idleExits.Add(1)
	e.idlers.Add(-1)
}

// quiescent reports whether all n shards are idle with no message,
// external event or queued thread in flight, and returns the
// outstanding-I/O count read under that condition. The counters are
// read in the reverse of the order in which work releases them: a
// completion raises msgs before it pays back outstandingIO, and a
// message raises its target's queue length before it pays back msgs.
// So outstandingIO is read first, and a completion applied between
// the reads still shows in msgs or a queue length. The check holds only if no shard left
// the idle path meanwhile (idleExits unchanged): then no shard applied
// anything during the reads, and the snapshot is consistent.
func (e *engine) quiescent(n int32) (int64, bool) {
	exits := e.idleExits.Load()
	if e.idlers.Load() != n {
		return 0, false
	}
	io := e.outstandingIO.Load()
	if e.msgs.Load() != 0 {
		return 0, false
	}
	for _, s := range e.shards {
		if s.qlen.Load() != 0 {
			return 0, false
		}
	}
	return io, e.idlers.Load() == n && e.idleExits.Load() == exits
}

// quiesce acts for an engine with no runnable thread and nothing in
// flight; io is the outstanding-I/O count read by the quiescence
// check. Under the virtual clock it jumps time to the earliest timer
// (the fastest clock rule Sleep permits) unless a completion is still
// outstanding; a real-clock timer, an outstanding completion or a
// parked getChar reader with input open means waiting for the
// environment; anything else is a deadlock. It returns acted=true when
// it changed state (advanced time or injected BlockedIndefinitely), so
// the caller should run another turn instead of waiting.
func (rt *RT) quiesce(io int64) (bool, error) {
	e := rt.eng
	if at, ok := e.earliestTimer(); ok {
		if e.opts.Clock == RealClock || io > 0 {
			return false, nil
		}
		from := e.now.Load()
		e.now.Store(at)
		rt.stats.TimeAdvances++
		rt.trace(EvTimeAdvance{FromNS: from, ToNS: at})
		rt.simObserve(SimEvent{Kind: SimAdvance, B: uint64(at)})
		rt.fireAllTimers(at)
		return true, nil
	}
	if io > 0 || rt.console.waitingReaders() {
		return false, nil
	}
	return true, rt.deadlock()
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

// fireAllTimers pops due entries from every shard's heap and wakes the
// sleepers on the calling shard in (deadline, seq) order — the order a
// single heap pops them in (safe under global quiescence).
func (rt *RT) fireAllTimers(now int64) {
	due := rt.due[:0]
	for _, s := range rt.eng.shards {
		s.smu.Lock()
		due = s.popDueTimersLocked(now, due)
		s.smu.Unlock()
	}
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].before(due[j-1]); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	rt.due = due
	rt.fireDue()
}

// deadlock handles global quiescence with every live thread stuck on an
// MVar, promise or closed input: no shard is running, no message or
// I/O is in flight, and no timer can fire. With detection enabled the
// detecting shard adopts every parked thread and wakes it with
// BlockedIndefinitely — they are stuck, hence interruptible, so rule
// (Interrupt) justifies delivery even under Block; the uninterruptible
// extension state is overridden, as in GHC, because no other delivery
// opportunity can ever arise.
func (rt *RT) deadlock() error {
	if !rt.opts.DetectDeadlock {
		return ErrDeadlock
	}
	var stuck []*Thread
	rt.eng.table.each(func(t *Thread) {
		if t.status == statusParked {
			stuck = append(stuck, t)
		}
	})
	if len(stuck) == 0 {
		return ErrDeadlock
	}
	// Deterministic order for reproducibility.
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

// ShardStats returns one Stats snapshot per shard. Every shard's
// counters — including the calling shard's own — are read from the
// snapshot each worker publishes under its shard lock, so ShardStats is
// safe from any goroutine while shards run. Publication is
// copy-on-demand: each read raises the shard's statsReq flag so the
// worker refreshes its snapshot at the next loop iteration (busy
// workers also publish every 64th iteration and at idle/stop
// boundaries — an idle shard's snapshot is already current, since it
// published on the way in and runs no steps while parked). Mid-run
// reads may therefore lag slightly; counters remain monotonic.
// (Worker-context readers that need current-slice freshness publish
// their own shard first: see the getStats family of primitives.)
func (rt *RT) ShardStats() []Stats {
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
func (rt *RT) Shards() int { return len(rt.eng.shards) }
