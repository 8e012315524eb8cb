package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/snmp"
)

// workload is one benchmark input: a monitored system, the manager's read
// schedule over it, and the fault the manager should notice.
type workload struct {
	name    string
	shards  int           // kernel shards the timed runs use
	horizon time.Duration // simulated length of one replica
	build   func(seed int64, shards int, horizon time.Duration, tr *tracer) *scenario
}

var workloads = map[string]*workload{
	rtdsHifi.name:   rtdsHifi,
	cotsStorm.name:  cotsStorm,
	wanSharded.name: wanSharded,
}

// Sample counts. Every invocation runs at least minReplicas timed
// replicas so that the reported host metrics are medians, and takes
// minSetups set-up samples of its own: set-up takes about a millisecond,
// so one sample per replica would leave its median at the mercy of one
// hiccup.
const (
	minReplicas = 5
	minSetups   = 201
)

// sliceLen cuts a traced replica's RunUntil into fixed simulated slices so
// that a host stall shows as one long slice span.
const sliceLen = 500 * time.Millisecond

// scenario is one built replica of a workload, ready to run.
type scenario struct {
	k     *sim.Kernel     // the kernel to drive; shard 0's when sharded (its RunUntil drives the group)
	group *sim.ShardGroup // nil on a plain kernel
	nets  []*netsim.Network
	segs  []*netsim.SharedSegment // the segments whose frames are tapped
	mgrs  []*manager              // one per shard-owned read schedule, in a fixed order
	dbs   []*core.Database        // the databases the manager's answers come from

	// Host time of the two set-up phases.
	setupTopo, setupMonitors time.Duration

	// Workload hooks: extra per-layer counts, the trap ledger (nil when no
	// traps are offered), the SNMP agent deployed on a host (nil when the
	// workload has no SNMP), and teardown.
	counts func(c counts)
	traps  func() trapLedger
	agent  func(host netsim.Addr) *snmp.Agent
	close  func()

	drops []*[nReasons]uint64 // per network, indexed by netsim.DropReason
	taps  []*segTap           // per tapped segment
}

// nReasons is the number of netsim.DropReason values.
const nReasons = int(netsim.DropNoStation) + 1

// instrument installs the benchmark's observers: a drop counter on every
// network and a monitoring-traffic tap on every tapped segment. Each
// observer belongs to one network, so on a sharded system it is only
// touched by that network's shard.
func (s *scenario) instrument(capture bool) {
	for _, nw := range s.nets {
		d := new([nReasons]uint64)
		nw.OnDrop = func(r netsim.DropReason, _ *netsim.Packet) { d[r]++ }
		s.drops = append(s.drops, d)
	}
	for _, seg := range s.segs {
		t := &segTap{capture: capture}
		seg.Tap(t.observe)
		s.taps = append(s.taps, t)
	}
}

// replica is the outcome of one run of a workload.
type replica struct {
	// Simulated, deterministic per seed.
	digest   uint64
	reads    int
	misses   int
	ages     []time.Duration
	detect   time.Duration // -1 when the manager never saw the fault
	horizon  time.Duration
	counts   counts
	monitorB uint64 // wire octets of monitoring frames on the tapped segments
	packets  packetLedger
	traps    *trapLedger

	// Host measurements.
	setup, setupTopo, setupMonitors time.Duration
	run                             time.Duration
	ref                             time.Duration // the time of the reference runs inside an untraced replica (reference.go)
	alloc, mallocs                  uint64
	gcCycles                        uint32
	gcPause                         time.Duration
	live                            uint64
	spans                           []span             // kept for the first traced replica only
	traceStats                      map[string]float64 // span-based per-layer metrics
	decodeAllocs                    float64

	errs []error
}

// runReplica builds, runs and checks one replica. tr is nil for an
// untraced run.
func runReplica(w *workload, seed int64, shards int, tr *tracer) (o *replica) {
	o = &replica{detect: -1, horizon: w.horizon}
	base := runtime.NumGoroutine()
	var s *scenario
	defer func() {
		if r := recover(); r != nil {
			o.errs = append(o.errs, fmt.Errorf("%s: panic: %v", w.name, r))
		}
		if s != nil {
			s.close()
			if err := awaitGoroutines(base); err != nil {
				o.errs = append(o.errs, err)
			}
		}
	}()

	// The heap live before the build holds the benchmark's records of
	// earlier replicas, which grow with their number, and the reference's
	// map, made here if it is not yet; live_heap_mb leaves it out.
	refRun(0)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	s = w.build(seed, shards, w.horizon, tr)
	o.setup = time.Since(t0)
	o.setupTopo, o.setupMonitors = s.setupTopo, s.setupMonitors
	s.instrument(tr != nil)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events := 0
	if tr == nil {
		// Timed slices of the run, each followed by a slice of the
		// reference, whose time the replica's host times are scaled by.
		for at := time.Duration(0); at < w.horizon; {
			at = min(at+w.horizon/refChunks, w.horizon)
			st := time.Now()
			events += s.k.RunUntil(at)
			o.run += time.Since(st)
			o.ref += refRun(refEvents / refChunks)
		}
	} else {
		t1 := time.Now()
		for at := time.Duration(0); at < w.horizon; {
			at = min(at+sliceLen, w.horizon)
			st := time.Now()
			events += s.k.RunUntil(at)
			tr.main.add("sim", "RunUntil", st, time.Now())
		}
		o.run = time.Since(t1)
	}
	runtime.ReadMemStats(&m1)
	o.alloc = m1.TotalAlloc - m0.TotalAlloc
	o.mallocs = m1.Mallocs - m0.Mallocs
	o.gcCycles = m1.NumGC - m0.NumGC
	o.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > before.HeapAlloc {
		o.live = m1.HeapAlloc - before.HeapAlloc
	}

	o.collect(s, events)
	if tr != nil {
		o.decodeAllocs = replaySNMP(s, tr)
		o.spans = tr.all()
		o.traceStats = spanMetrics(o.spans)
	}
	return o
}

// collect reads the simulated outcome off the finished scenario and runs
// the conservation checks.
func (o *replica) collect(s *scenario, events int) {
	for _, m := range s.mgrs {
		o.reads += m.reads
		o.misses += m.misses
		o.ages = append(o.ages, m.ages...)
		if m.detect >= 0 && (o.detect < 0 || m.detect < o.detect) {
			o.detect = m.detect
		}
	}
	sort.Slice(o.ages, func(i, j int) bool { return o.ages[i] < o.ages[j] })

	o.packets = s.packetLedger()
	for _, t := range s.taps {
		o.monitorB += t.monitorOctets
	}
	o.counts = s.layerCounts(events, o.packets)
	if s.traps != nil {
		l := s.traps()
		o.traps = &l
	}

	h := newDigest()
	for _, m := range s.mgrs {
		h.add(uint64(m.reads), uint64(m.misses), uint64(m.sum), uint64(m.detect))
	}
	h.add(o.monitorB)
	for _, d := range layerDefs {
		if d.det && !d.shardDep {
			h.add(math.Float64bits(o.counts[d.name]))
		}
	}
	o.digest = uint64(h)
	o.errs = append(o.errs, o.check()...)
}

// check applies the per-run correctness checks that need no second run.
func (o *replica) check() []error {
	var errs []error
	if err := o.packets.check(); err != nil {
		errs = append(errs, err)
	}
	if o.traps != nil {
		if err := o.traps.check(); err != nil {
			errs = append(errs, err)
		}
	}
	if o.reads == 0 {
		errs = append(errs, errors.New("the manager made no reads"))
	}
	if o.detect < 0 {
		errs = append(errs, errors.New("the manager never saw the injected fault"))
	}
	return errs
}

// awaitGoroutines waits for every goroutine started since base to exit:
// Kernel.Close releases parked Procs, whose goroutines need a moment to
// return after handing control back.
func awaitGoroutines(base int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutine(s) outlive Close", n-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupSample builds and tears down one replica without running it and
// returns the set-up host time.
func setupSample(w *workload, seed int64) (time.Duration, error) {
	base := runtime.NumGoroutine()
	runtime.GC()
	t0 := time.Now()
	s := w.build(seed, w.shards, w.horizon, nil)
	d := time.Since(t0)
	s.close()
	return d, awaitGoroutines(base)
}

// result aggregates one invocation's replicas.
type result struct {
	w        *workload
	first    *replica
	reps     []*replica // untraced, timed
	traced   []*replica
	setups   []time.Duration // set-up samples in reference-host time
	attempts int
	errs     []error
}

func (r *result) add(o *replica, traced bool) {
	r.errs = append(r.errs, o.errs...)
	r.attempts += o.reads
	if r.first == nil {
		r.first = o
	} else {
		if o.digest != r.first.digest {
			r.errs = append(r.errs, fmt.Errorf("replica digest %016x differs from the first replica's %016x: the simulation is not deterministic",
				o.digest, r.first.digest))
		}
		o.ages = nil // the first replica keeps the read ages; later ones only digest them
	}
	if traced {
		if len(r.traced) > 0 {
			o.spans = nil // the first traced replica's spans are written out; later ones are summarised
		}
		r.traced = append(r.traced, o)
		return
	}
	r.reps = append(r.reps, o)
}

// measure runs untraced replicas for the budget and aggregates them.
func measure(w *workload, seed int64, budget time.Duration) result {
	r := result{w: w}
	start := time.Now()
	for len(r.reps) < minReplicas || time.Since(start)+mean(r.reps) < budget {
		r.add(runReplica(w, seed, w.shards, nil), false)
	}
	r.checkShards(seed)
	r.takeSetups(w, seed)
	return r
}

// checkShards runs a sharded workload once more on a single shard: its
// digest must equal the timed replicas'.
func (r *result) checkShards(seed int64) {
	if r.w.shards == 1 {
		return
	}
	ref := runReplica(r.w, seed, 1, nil)
	r.errs = append(r.errs, ref.errs...)
	r.attempts += ref.reads
	if ref.digest != r.first.digest {
		r.errs = append(r.errs, fmt.Errorf("%d-shard digest %016x differs from the 1-shard digest %016x",
			r.w.shards, r.first.digest, ref.digest))
	}
}

// takeSetups takes minSetups set-up samples, each followed by a slice of
// the reference. A sample is scaled by the mean of the slices on either
// side of it: set-up takes about a millisecond, so the host's speed has to
// be caught as close to it as the replicas' is.
func (r *result) takeSetups(w *workload, seed int64) {
	slice := func() time.Duration { return refRun(refEvents/refChunks) * refChunks }
	before := slice()
	for len(r.setups) < minSetups {
		d, err := setupSample(w, seed)
		if err != nil {
			r.errs = append(r.errs, err)
		}
		after := slice()
		r.setups = append(r.setups, toRef(d, (before+after)/2))
		before = after
	}
}

// mean is the mean set-up, run and reference host time of the replicas so
// far.
func mean(reps []*replica) time.Duration {
	if len(reps) == 0 {
		return 0
	}
	var t time.Duration
	for _, o := range reps {
		t += o.run + o.setup + o.ref
	}
	return t / time.Duration(len(reps))
}

// speed is a replica's simulated seconds per host second of the reference
// host.
func speed(o *replica) float64 { return o.horizon.Seconds() / toRef(o.run, o.ref).Seconds() }

// rawSpeed is a replica's simulated seconds per host second as measured.
func rawSpeed(o *replica) float64 { return o.horizon.Seconds() / o.run.Seconds() }

func (r *result) correct() bool { return len(r.errs) == 0 && r.first != nil }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) report() report {
	rep := report{Correct: r.correct(), Attempted: r.attempts, Metrics: map[string]metric{}}
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	if !rep.Correct {
		// A run that fails a check counts every read it made as failed.
		rep.Failed = rep.Attempted
	}
	if r.first == nil {
		return rep
	}
	if len(r.traced) > 0 {
		for _, c := range r.layerMetrics() {
			rep.Metrics[c.name] = metric{c.v, c.unit}
		}
		return rep
	}
	for _, e := range r.endToEnd() {
		rep.Metrics[e.name] = metric{e.v, e.unit}
	}
	return rep
}

type named struct {
	name, unit string
	v          float64
}

// endToEnd computes the end-to-end metrics: host times as medians over the
// replicas in reference-host time, simulated ones from the first replica
// (every replica's digest equals it).
func (r *result) endToEnd() []named {
	f := r.first
	return []named{
		{"sim_speed", "s/s", medianOf(r.reps, speed)},
		{"setup_s", "s", medianDur(r.setups).Seconds()},
		{"alloc_mb", "MB", medianOf(r.reps, func(o *replica) float64 { return float64(o.alloc) / 1e6 })},
		{"live_heap_mb", "MB", medianOf(r.reps, func(o *replica) float64 { return float64(o.live) / 1e6 })},
		{"read_age_p50_s", "s", quantileDur(f.ages, 0.50).Seconds()},
		{"read_age_p99_s", "s", quantileDur(f.ages, 0.99).Seconds()},
		{"read_fail_frac", "ratio", float64(f.misses) / float64(f.reads)},
		{"detect_s", "s", f.detect.Seconds()},
		{"monitor_bps", "bit/s", float64(f.monitorB) * 8 / f.horizon.Seconds()},
	}
}

func (r *result) summary() string {
	s := fmt.Sprintf("perfbench: %s: %d timed replica(s), %d traced, %d set-up sample(s), correct=%v",
		r.w.name, len(r.reps), len(r.traced), len(r.setups), r.correct())
	if r.first != nil {
		s += fmt.Sprintf(", digest %016x", r.first.digest)
	}
	if len(r.reps) > 0 {
		s += fmt.Sprintf(", raw sim_speed %.1f s/s, reference median %.2f ms",
			medianOf(r.reps, rawSpeed), medianOf(r.reps, func(o *replica) float64 { return float64(o.ref) / 1e6 }))
	}
	return s
}

func medianOf(reps []*replica, f func(*replica) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	v := make([]float64, len(reps))
	for i, o := range reps {
		v[i] = f(o)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// quantileDur is the nearest-rank q-quantile of sorted durations.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// digest is a 64-bit FNV-1a hash over fixed-width values. It is a plain
// value, not a hash.Hash, so feeding it on the read path allocates nothing
// and leaves alloc_mb to the system under test.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*d ^= digest(byte(v >> (8 * i)))
			*d *= 1099511628211
		}
	}
}

// seeds derives every random input of a replica from the --seed value, in
// a fixed order, so the same seed always builds the same inputs.
type seeds struct{ r *rand.Rand }

func newSeeds(seed int64) *seeds { return &seeds{rand.New(rand.NewSource(seed))} }

func (s *seeds) next() int64 { return s.r.Int63() }

// jitter returns a seeded offset in [0, max).
func (s *seeds) jitter(max time.Duration) time.Duration {
	return time.Duration(s.r.Int63n(int64(max)))
}
