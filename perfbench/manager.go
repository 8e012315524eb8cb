package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// manager is the paper's resource manager as the benchmark plays it: on a
// fixed simulated schedule it asks the monitor for (path, metric) answers
// and keeps what the end-to-end metrics need. A read misses when no answer
// fresh within ttl comes back, or the answer is a failed measurement. One
// manager belongs to one shard and is only touched from it.
type manager struct {
	ttl     time.Duration
	reads   int
	misses  int
	ages    []time.Duration // age (now - TakenAt) of every answer, in read order
	sum     digest          // digest of every read, in read order
	detect  time.Duration   // simulated delay until the fault was seen; -1 = not yet
	faultAt time.Duration   // when the fault was injected; -1 = not on this manager
	log     *spanLog        // nil when untraced
}

func newManager(ttl time.Duration, log *spanLog) *manager {
	return &manager{ttl: ttl, sum: newDigest(), detect: -1, faultAt: -1, log: log}
}

// answer records one read's outcome at simulated time now.
func (m *manager) answer(now time.Duration, meas core.Measurement, ok bool) {
	m.reads++
	if !ok || !meas.OK() {
		m.misses++
		m.sum.add(uint64(now), 0)
		return
	}
	age := now - meas.TakenAt
	m.ages = append(m.ages, age)
	m.sum.add(uint64(now), 1, uint64(age), math.Float64bits(meas.Value))
}

// value records a read that returns a bare number (a quantile); it has no
// sample time, so it contributes no age.
func (m *manager) value(now time.Duration, v float64, ok bool) {
	m.reads++
	if !ok {
		m.misses++
		m.sum.add(uint64(now), 2)
		return
	}
	m.sum.add(uint64(now), 3, math.Float64bits(v))
}

// seen marks the fault as noticed at simulated time now, once.
func (m *manager) seen(now time.Duration) {
	if m.detect < 0 && m.faultAt >= 0 && now >= m.faultAt {
		m.detect = now - m.faultAt
	}
}

// readFresh is the manager's senescence-gated read: one QueryFresh-shaped
// call, traced as a core span. A fresh reachability answer of 0 on a path
// to the failed host is the manager seeing the fault.
func (m *manager) readFresh(now time.Duration, q core.FreshQuerier, path core.Path, met metrics.Metric, victim bool) {
	st := m.log.start()
	meas, ok := q.QueryFresh(path.ID, met, now, m.ttl)
	m.log.end("core", "read", st)
	m.answer(now, meas, ok)
	if victim && ok && met == metrics.Reachability && meas.OK() && !meas.Reached() {
		m.seen(now)
	}
}

// every schedules fn on k at a fixed simulated period from start until
// the horizon. A kernel callback, not a Proc: the manager adds no
// goroutines of its own to the system under test.
func every(k *sim.Kernel, start, period, horizon time.Duration, fn func(now time.Duration)) {
	var tick func()
	next := start
	tick = func() {
		fn(k.Now())
		next += period
		if next <= horizon {
			k.At(next, tick)
		}
	}
	k.At(start, tick)
}

// span is one timed call into a layer. Times are host times relative to
// the tracer's origin.
type span struct {
	layer, name string
	start, dur  time.Duration
}

// spanLog is an append-only span buffer owned by one goroutine: the
// main goroutine's, or one shard's. A nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) start() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

func (l *spanLog) end(layer, name string, st time.Time) {
	if l == nil {
		return
	}
	l.add(layer, name, st, time.Now())
}

func (l *spanLog) add(layer, name string, st, en time.Time) {
	l.spans = append(l.spans, span{layer: layer, name: name, start: st.Sub(l.origin), dur: en.Sub(st)})
}

// tracer keeps every span of a traced replica in memory; they are written
// out when the benchmark ends.
type tracer struct {
	origin time.Time
	main   *spanLog   // the main goroutine's: set-up phases and RunUntil slices
	logs   []*spanLog // every log, main first
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.main = t.log()
	return t
}

// log returns a new span log for one goroutine. Call at wiring time.
// A nil tracer hands out nil logs.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{origin: t.origin}
	t.logs = append(t.logs, l)
	return l
}

// phase records a set-up phase that started at st and returns its length.
func (t *tracer) phase(layer, name string, st time.Time) time.Duration {
	en := time.Now()
	if t != nil {
		t.main.add(layer, name, st, en)
	}
	return en.Sub(st)
}

// all returns every span, ordered by start.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// selfTimes returns each span's self time: its duration minus the
// durations of the spans that started inside it. Only RunUntil slices have
// children (the benchmark-owned calls the simulation makes into the
// layers); on a sharded system the children of one slice come from every
// shard's goroutine, so the subtraction counts their summed durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur
	}
	for i, s := range spans {
		if s.name != "RunUntil" {
			continue
		}
		for j := i + 1; j < len(spans) && spans[j].start < s.start+s.dur; j++ {
			if spans[j].name != "RunUntil" {
				self[i] -= spans[j].dur
			}
		}
	}
	return self
}
