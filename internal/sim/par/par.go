// Package par provides the conservative parallel discrete-event kernel: the
// multicore counterpart of internal/sim's serial Engine.
//
// Sites (called origins here) are pinned to partitions; each partition owns
// an event heap, a clock and an execution thread, so all events of one
// origin run serially on one goroutine — the same per-site serial contract
// the serial kernel and the TCP transport give the protocol layer.
// Partitions synchronize with conservative time windows: every round the
// coordinator computes the global floor (the minimum next-event time across
// partitions) and lets all partitions run concurrently up to the safe
// horizon floor+lookahead, where the lookahead is the minimum delay of any
// link crossing partitions. An event executing inside the window cannot
// affect another partition sooner than the horizon, so no partition can
// receive an event in its past. Cross-partition events are buffered in
// per-pair outboxes written only by the sending partition during the window
// and merged into the destination heaps at the barrier.
//
// Determinism does not depend on goroutine timing: events are ordered by the
// partition-count-independent key
//
//	(at, birth, origin, seq)
//
// where birth is the virtual time at which the event was scheduled, origin
// is the site whose execution context scheduled it and seq is a per-origin
// monotone counter. The key is a strict total order (seq never repeats per
// origin), so the merged execution order is a pure function of the schedule
// calls — the same at every partition count, including 1. It reproduces the
// serial kernel's (at, scheduling-order) tie-break whenever simultaneous
// events were scheduled at different instants or by the same origin; only
// distinct origins scheduling at the same instant for the same instant can
// order differently, which continuous link delays make a measure-zero
// coincidence (the suite's serial-vs-parallel byte-identity property test
// enforces it empirically).
package par

import (
	"container/heap"
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// event is one scheduled closure. The ordering key (at, birth, origin, seq)
// is partition-count-independent; see the package comment.
type event struct {
	at     float64
	birth  float64
	origin int32
	seq    int64
	id     int64 // cancellation handle; 0 = fire-and-forget
	fn     func()
	index  int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// partition is one shard of the simulation: an event heap, a node pool, a
// clock and the cancellation index of its own timers. All fields are owned
// by the partition's worker goroutine during a window and by the
// coordinator between windows (the barrier channels order the handoff).
type partition struct {
	pq        eventHeap
	free      []*event
	live      map[int64]*event
	nextID    int64
	now       float64
	processed int64
	limitHit  bool
}

// window is one synchronization round's execution bound. Events strictly
// below bound run; with inclusive set (the RunUntil horizon cap) events at
// the bound run too, matching the serial kernel's "process at <= t".
type window struct {
	bound     float64
	inclusive bool
}

// Engine is the conservative parallel kernel. Construct with New; the zero
// value is not ready to use. Schedule/Run/RunUntil must not be interleaved
// from other goroutines while a run is in flight — during a run, scheduling
// is legal only from inside event closures (each closure schedules on
// behalf of the origin whose context it runs in, exactly like the serial
// kernel's single-threaded contract, just one contract per partition).
type Engine struct {
	lookahead  float64
	originPart []int32
	originSeq  []int64
	parts      []*partition
	outbox     [][][]*event // [src partition][dst partition]
	limit      int64
	running    bool
}

// New builds an engine over a site→partition assignment (typically
// graph.Partition) and the conservative lookahead (typically
// graph.MinCrossDelay of the same assignment). The lookahead must be
// positive — with more than one partition a zero lookahead cannot make
// progress — and is +Inf when nothing crosses partitions, which degenerates
// to a single window per run.
func New(part []int, lookahead float64) (*Engine, error) {
	if len(part) == 0 {
		return nil, fmt.Errorf("par: empty partition assignment")
	}
	nparts := 0
	for origin, p := range part {
		if p < 0 {
			return nil, fmt.Errorf("par: origin %d has negative partition %d", origin, p)
		}
		if p+1 > nparts {
			nparts = p + 1
		}
	}
	if !(lookahead > 0) {
		return nil, fmt.Errorf("par: non-positive lookahead %v", lookahead)
	}
	e := &Engine{
		lookahead:  lookahead,
		originPart: make([]int32, len(part)),
		originSeq:  make([]int64, len(part)),
		parts:      make([]*partition, nparts),
		outbox:     make([][][]*event, nparts),
	}
	for origin, p := range part {
		e.originPart[origin] = int32(p)
	}
	for p := range e.parts {
		e.parts[p] = &partition{live: make(map[int64]*event)}
		e.outbox[p] = make([][]*event, nparts)
	}
	return e, nil
}

// Parts reports the number of partitions.
func (e *Engine) Parts() int { return len(e.parts) }

// Lookahead reports the conservative window width.
func (e *Engine) Lookahead() float64 { return e.lookahead }

// SetEventLimit bounds the total number of events processed across all Run
// calls, the same livelock backstop as the serial kernel. Because partitions
// only reconcile at window barriers, the run may overshoot the limit by up
// to one window's worth of events before the error surfaces. limit <= 0
// removes the bound.
func (e *Engine) SetEventLimit(limit int64) {
	if limit < 0 {
		limit = 0
	}
	e.limit = limit
}

// Now reports the engine's clock: the maximum partition clock, which after
// a completed Run equals the timestamp of the last event processed (the
// serial kernel's Now). Only meaningful between runs.
func (e *Engine) Now() float64 {
	now := 0.0
	for _, pt := range e.parts {
		if pt.now > now {
			now = pt.now
		}
	}
	return now
}

// NowOf reports the clock of the origin's partition: the virtual time an
// event closure running in that origin's execution context observes.
func (e *Engine) NowOf(origin int) float64 {
	return e.parts[e.originPart[origin]].now
}

// Processed reports how many events have fired so far, across partitions.
func (e *Engine) Processed() int64 {
	var total int64
	for _, pt := range e.parts {
		total += pt.processed
	}
	return total
}

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int {
	total := 0
	for _, pt := range e.parts {
		total += len(pt.pq)
	}
	return total
}

// alloc draws an event node from a partition's pool and fills the ordering
// key. seq is drawn from the scheduling origin's counter, which only that
// origin's partition touches, so the increment needs no synchronization.
func (e *Engine) alloc(pt *partition, from int, at, birth float64, fn func()) *event {
	if math.IsNaN(at) {
		panic("par: NaN event time")
	}
	if fn == nil {
		panic("par: nil event function")
	}
	e.originSeq[from]++
	var ev *event
	if n := len(pt.free); n > 0 {
		ev = pt.free[n-1]
		pt.free[n-1] = nil
		pt.free = pt.free[:n-1]
		ev.at, ev.birth, ev.origin, ev.seq, ev.id, ev.fn = at, birth, int32(from), e.originSeq[from], 0, fn
	} else {
		//lint:allow hotalloc -- pool-miss growth: each node is allocated once, then recycled through the partition pool
		ev = &event{at: at, birth: birth, origin: int32(from), seq: e.originSeq[from], fn: fn}
	}
	return ev
}

// release returns a fired or cancelled node to a partition's pool, dropping
// the closure so the pool does not pin caller state.
func release(pt *partition, ev *event) {
	ev.fn = nil
	pt.free = append(pt.free, ev)
}

// Schedule enqueues fn to run at absolute virtual time at in the execution
// context of origin to, scheduled by origin from. During a run it must be
// called from from's own execution context (an event closure of from's
// partition); between runs any goroutine may call it, serially. Events for
// another partition are buffered in the sender's outbox and merged at the
// next barrier — conservativeness demands they be at least one lookahead
// away, which holds by construction when at = now + link delay and is
// checked here.
//
//lint:hotpath -- every simulated message delivery and timer is scheduled through here
func (e *Engine) Schedule(from, to int, at float64, fn func()) {
	p := e.originPart[from]
	q := e.originPart[to]
	src := e.parts[p]
	if !e.running {
		// Pre-run (bootstrap sends, arrival submissions, membership arming):
		// single-threaded, all clocks aligned; push straight into the
		// destination heap.
		dst := e.parts[q]
		if at < dst.now {
			panic(fmt.Sprintf("par: scheduling event in the past: t=%v now=%v", at, dst.now))
		}
		ev := e.alloc(dst, from, at, dst.now, fn)
		heap.Push(&dst.pq, ev)
		return
	}
	if at < src.now {
		panic(fmt.Sprintf("par: scheduling event in the past: t=%v now=%v", at, src.now))
	}
	ev := e.alloc(src, from, at, src.now, fn)
	if p == q {
		heap.Push(&src.pq, ev)
		return
	}
	if at < src.now+e.lookahead {
		panic(fmt.Sprintf(
			"par: cross-partition event inside the lookahead window: t=%v now=%v lookahead=%v",
			at, src.now, e.lookahead))
	}
	e.outbox[p][q] = append(e.outbox[p][q], ev)
}

// ScheduleCancellable enqueues fn to run at absolute time at in origin's own
// execution context and returns a cancel function reporting whether the
// event was still pending. Timers never cross partitions — an origin arms
// and cancels only its own — so the cancellation index is partition-local.
func (e *Engine) ScheduleCancellable(origin int, at float64, fn func()) func() bool {
	pt := e.parts[e.originPart[origin]]
	if at < pt.now {
		panic(fmt.Sprintf("par: scheduling event in the past: t=%v now=%v", at, pt.now))
	}
	ev := e.alloc(pt, origin, at, pt.now, fn)
	pt.nextID++
	ev.id = pt.nextID
	pt.live[ev.id] = ev
	heap.Push(&pt.pq, ev)
	id := ev.id
	return func() bool {
		pending, ok := pt.live[id]
		if !ok {
			return false
		}
		delete(pt.live, id)
		heap.Remove(&pt.pq, pending.index)
		release(pt, pending)
		return true
	}
}

// runWindow executes one partition's share of a synchronization window: pop
// and fire events below the bound, tracking the partition clock. It is the
// parallel kernel's event-loop body.
//
//lint:hotpath -- the partition step loop: every simulated event dispatch goes through here
func (pt *partition) runWindow(e *Engine, w window) {
	for len(pt.pq) > 0 {
		top := pt.pq[0]
		if top.at > w.bound || (top.at == w.bound && !w.inclusive) {
			return
		}
		if e.limit > 0 && pt.processed >= e.limit {
			// Local backstop against a livelock that never leaves this
			// partition (zero-delay local event chains never exhaust a
			// window); the barrier reconciles the global count.
			pt.limitHit = true
			return
		}
		ev := heap.Pop(&pt.pq).(*event)
		if ev.id != 0 {
			delete(pt.live, ev.id)
		}
		if ev.at < pt.now {
			panic("par: time went backwards") // unreachable by construction
		}
		at, fn := ev.at, ev.fn
		release(pt, ev) // fn may schedule and reuse the node; all fields are read
		pt.now = at
		pt.processed++
		fn()
		pt.maybeShrink()
	}
}

// Run processes events until every queue drains or the event limit trips.
// On success every partition clock is advanced to the global maximum — the
// serial kernel's single Now — so scheduling between runs observes one
// aligned clock regardless of which partition fired the last event.
func (e *Engine) Run() error {
	if err := e.run(math.Inf(1)); err != nil {
		return err
	}
	now := e.Now()
	for _, pt := range e.parts {
		pt.now = now
	}
	return nil
}

// RunUntil processes events with timestamps <= t, then advances every
// partition clock to t (even where no event fired), matching the serial
// kernel's RunUntil.
func (e *Engine) RunUntil(t float64) error {
	for _, pt := range e.parts {
		if t < pt.now {
			return fmt.Errorf("par: RunUntil(%v) is in the past (now=%v)", t, pt.now)
		}
	}
	if err := e.run(t); err != nil {
		return err
	}
	for _, pt := range e.parts {
		pt.now = t
	}
	return nil
}

// run is the coordinator: spawn one worker per partition, then loop
// synchronization windows — compute the global floor, broadcast the safe
// bound, wait for the barrier, merge the outboxes — until no event at or
// below the horizon remains.
func (e *Engine) run(horizon float64) error {
	if e.running {
		return fmt.Errorf("par: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	nparts := len(e.parts)
	if nparts == 1 {
		// One partition needs no workers or barriers: run the window loop
		// inline (this is also the shape lossy fault plans collapse to).
		return e.runSerial(horizon)
	}

	cmds := make([]chan window, nparts)
	for p := range cmds {
		cmds[p] = make(chan window)
	}
	var winWG sync.WaitGroup
	var runWG sync.WaitGroup
	for p := 0; p < nparts; p++ {
		runWG.Add(1)
		go func(p int) {
			defer runWG.Done()
			for w := range cmds[p] {
				e.parts[p].runWindow(e, w)
				winWG.Done()
			}
		}(p)
	}
	stop := func() {
		for _, c := range cmds {
			close(c)
		}
		runWG.Wait()
	}

	for {
		w, ok := e.nextWindow(horizon)
		if !ok {
			break
		}
		winWG.Add(nparts)
		for _, c := range cmds {
			c <- w
		}
		winWG.Wait()
		if err := e.mergeBarrier(); err != nil {
			stop()
			return err
		}
	}
	stop()
	return nil
}

// runSerial is the single-partition fast path: the same window loop without
// goroutines, preserving the exact event order of the multi-partition run
// (the ordering key is partition-count-independent).
func (e *Engine) runSerial(horizon float64) error {
	pt := e.parts[0]
	for {
		w, ok := e.nextWindow(horizon)
		if !ok {
			return nil
		}
		pt.runWindow(e, w)
		if err := e.mergeBarrier(); err != nil {
			return err
		}
	}
}

// nextWindow computes the next synchronization window under the horizon:
// bound floor+lookahead exclusive, capped at the horizon inclusive (the
// serial kernel's RunUntil processes events at exactly t). ok is false when
// no pending event is due at or below the horizon.
func (e *Engine) nextWindow(horizon float64) (window, bool) {
	floor := math.Inf(1)
	for _, pt := range e.parts {
		if len(pt.pq) > 0 && pt.pq[0].at < floor {
			floor = pt.pq[0].at
		}
	}
	if floor > horizon || math.IsInf(floor, 1) {
		return window{}, false
	}
	if b := floor + e.lookahead; b <= horizon {
		return window{bound: b}, true
	}
	return window{bound: horizon, inclusive: true}, true
}

// mergeBarrier folds every outbox into its destination heap and reconciles
// the global event count against the limit. Merge order (destination-major,
// source ascending, append order within a pair) does not matter for the
// event order — the key is a strict total order — only for reproducibility
// of heap internals; it is fixed anyway.
func (e *Engine) mergeBarrier() error {
	limitHit := false
	for q, pt := range e.parts {
		for p := range e.parts {
			box := e.outbox[p][q]
			for _, ev := range box {
				heap.Push(&pt.pq, ev)
			}
			for i := range box {
				box[i] = nil
			}
			e.outbox[p][q] = box[:0]
		}
		if pt.limitHit {
			limitHit = true
		}
	}
	if limitHit || (e.limit > 0 && e.Processed() >= e.limit && e.Pending() > 0) {
		return sim.ErrEventLimit
	}
	return nil
}

// poolMin is the capacity below which the shrink heuristics never fire;
// steady-state simulations stay under it and pay nothing.
const poolMin = 1 << 10

// maybeShrink caps the memory a burst leaves pinned in this partition, the
// same policy as the serial kernel: surplus pooled nodes are released to the
// garbage collector once the pool dwarfs the pending queue, and the heap's
// backing array is reallocated once its length falls below a quarter of its
// capacity.
func (pt *partition) maybeShrink() {
	if pt.processed&1023 != 0 {
		return
	}
	if n := len(pt.free); n > poolMin && n > 4*(len(pt.pq)+1) {
		for i := n / 2; i < n; i++ {
			pt.free[i] = nil
		}
		pt.free = pt.free[:n/2]
	}
	if c := cap(pt.free); c > poolMin && len(pt.free) < c/4 {
		pt.free = append(make([]*event, 0, c/2), pt.free...) //lint:allow hotalloc -- burst-shrink realloc: at most once per 1024 events, only while the pool is 4x oversized
	}
	if c := cap(pt.pq); c > poolMin && len(pt.pq) < c/4 {
		pq := make(eventHeap, len(pt.pq), c/2) //lint:allow hotalloc -- burst-shrink realloc: at most once per 1024 events, only while the heap backing is 4x oversized
		copy(pq, pt.pq)
		pt.pq = pq
	}
}
