package simnet

import "container/heap"

// engine is the scheduling surface the differential tests drive, so the
// production wheel (*Scheduler) and the reference heap run the same
// programs.
type engine interface {
	Now() Time
	At(t Time, fn func())
	AtEvent(t Time, ev Event)
	AtEventFront(t Time, ev Event)
	Run()
}

// heapScheduler is the reference engine: a binary heap over (time,
// sequence), the textbook discrete-event queue, with Scheduler's
// semantics — past times clamp to Now, equal-time events run FIFO, and
// front-band events precede normal ones at the same instant. The wheel
// must dequeue in exactly its order.
type heapScheduler struct {
	now    Time
	seq    uint64
	events eventHeap
}

func (h *heapScheduler) Now() Time                     { return h.now }
func (h *heapScheduler) At(t Time, fn func())          { h.schedule(t, fn, nil, seqNormalBand) }
func (h *heapScheduler) AtEvent(t Time, ev Event)      { h.schedule(t, nil, ev, seqNormalBand) }
func (h *heapScheduler) AtEventFront(t Time, ev Event) { h.schedule(t, nil, ev, 0) }

func (h *heapScheduler) schedule(t Time, fn func(), ev Event, band uint64) {
	if t < h.now {
		t = h.now
	}
	h.seq++
	heap.Push(&h.events, firing{at: t, seq: band | h.seq, fn: fn, ev: ev})
}

// Run drains the queue in (time, sequence) order.
func (h *heapScheduler) Run() {
	for len(h.events) > 0 {
		e := heap.Pop(&h.events).(firing)
		h.now = e.at
		if e.fn != nil {
			e.fn()
		} else {
			e.ev.Run(e.at)
		}
	}
}

// eventHeap is a container/heap of firings ordered by firingLess.
type eventHeap []firing

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return firingLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(firing)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = firing{}
	*h = old[:n-1]
	return e
}
