package main

import (
	"container/heap"
	"time"
)

// The host this benchmark runs on is shared: how fast it executes a fixed
// piece of code drifts by tens of percent, from one second to the next and
// from one minute to the next. So the timed work is interleaved with runs
// of a fixed reference computation, and host times are reported in
// reference-host time: the measured time scaled by refNominal over the
// time the reference took beside it. A stretch in which the host runs 30%
// slower slows the program and the reference alike, and the ratio cancels
// it.
//
// The reference is stdlib-only and uses none of the repository's code, so
// no change to the program moves it. Its shape follows the simulator's: a
// container/heap of timed events behind an interface, whose handlers write
// small records, index them in a map and schedule successors. It
// allocates nothing once warm, so it neither triggers GC cycles nor pays
// for the program's (a reference that did slowed down with the size of
// the program's heap, which would have hidden part of any change to it),
// and it leaves the replica's allocation figures alone.

// refNominal is the reference's median time for refEvents events on the
// host the benchmark was tuned on (2 vCPUs of an Intel Xeon, one P), so
// that normalised figures read as host time of that machine.
const refNominal = 18 * time.Millisecond

// refEvents is the number of events of one full reference run. A timed
// replica runs its horizon in refChunks slices, each followed by
// refEvents/refChunks reference events.
const (
	refEvents = 56_000
	refChunks = 8
)

const (
	refPending = 512  // events in the heap at any time
	refKeys    = 1024 // map keys
	refPool    = 4096 // records, reused round-robin
)

type refEvent struct {
	at  int64
	rec *refRecord
}

type refRecord struct {
	key  uint64
	hops [6]uint32
	next *refRecord
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// ref is the reference's state. It persists across runs and, apart from
// the map, lives in fixed arrays outside the heap.
var ref struct {
	x       uint64
	events  [refPending]refEvent
	backing [refPending]*refEvent
	pool    [refPool]refRecord
	next    int
	q       refQueue
	index   map[uint64]*refRecord
	sum     uint64 // keeps the work observable
}

func (s *refQueue) init() {
	*s = ref.backing[:0]
	for i := range ref.events {
		e := &ref.events[i]
		e.at, e.rec = int64(refRnd()%1000), refNew()
		heap.Push(s, e)
	}
}

func refRnd() uint64 {
	ref.x ^= ref.x << 13
	ref.x ^= ref.x >> 7
	ref.x ^= ref.x << 17
	return ref.x
}

// refNew takes the next record of the pool and gives it a fresh key.
func refNew() *refRecord {
	r := &ref.pool[ref.next]
	ref.next = (ref.next + 1) % refPool
	r.key, r.next = refRnd(), nil
	return r
}

// refRun handles n reference events and returns their host time.
func refRun(n int) time.Duration {
	if ref.index == nil {
		ref.x = 0x9e3779b97f4a7c15
		ref.index = make(map[uint64]*refRecord, refKeys)
		ref.q.init()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e := heap.Pop(&ref.q).(*refEvent)
		k := e.rec.key % refKeys
		r := refNew()
		r.next = ref.index[k]
		for h := range r.hops {
			r.hops[h] = uint32(e.rec.key >> (8 * h))
		}
		if r.next != nil {
			r.next.next = nil // keep chains short so the records turn over
		}
		if r.key&3 == 0 {
			delete(ref.index, k^1)
		}
		ref.index[k] = r
		ref.sum += r.key
		e.at += 1 + int64(refRnd()%1000)
		e.rec = r
		heap.Push(&ref.q, e)
	}
	return time.Since(t0)
}

// toRef converts host time d, measured beside reference runs of
// refEvents events in all that took rd, to reference-host time.
func toRef(d, rd time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(rd))
}
