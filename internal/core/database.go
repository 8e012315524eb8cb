package core

import (
	"sort"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// DefaultHistoryDepth is how many samples the database retains per
// (path, metric).
const DefaultHistoryDepth = 64

type dbKey struct {
	path   PathID
	metric metrics.Metric
}

// dbSeries retains history in a fixed ring buffer sized once when the
// series is created, so sustained recording never copies or reallocates.
type dbSeries struct {
	current   Measurement
	lastKnown Measurement
	hasLast   bool
	stale     bool           // marked by MarkStale; cleared by the next Record
	ring      []Measurement  // fixed capacity == history depth
	head      int            // index of the oldest retained sample
	count     int            // retained samples, <= len(ring)
	sk        *sketch.Sketch // per-series quantile sketch; nil unless EnableSketches

	// Results batching (nil unless EnableResults): successful values
	// accumulate in the fixed buffer and flush to the sink as one batch
	// when it fills (see flushResults).
	rbuf []float64
	rn   int
	rAt  time.Duration // TakenAt of the newest buffered sample
}

// Database is the measurement store of Figure 2. It "enables both current
// value and last known value reporting to the resource manager": the
// current value is the latest sample (which may be a failure), the last
// known value is the latest successful sample.
type Database struct {
	// HistoryDepth bounds per-series history; zero means the default. It
	// must be set before the first Record and must not change afterwards:
	// ring buffers are sized once per series, so a mid-life change would
	// silently give old and new series different depths. Record panics if
	// the value differs from the one in effect at the database's first
	// Record.
	HistoryDepth int

	lockedDepth int  // HistoryDepth value captured at the first Record
	depthLocked bool // whether lockedDepth is in effect

	sketchOn bool              // maintain a quantile sketch per series
	sketchTh sketch.Thresholds // stall levels applied to new sketches

	resSink  BatchSink // durable results seam; nil = disabled
	resBatch int       // samples per flushed batch
	resErr   error     // first sink error, surfaced by FlushResults

	series map[dbKey]*dbSeries
	// Records counts all stored measurements.
	Records uint64
	// StaleMarked counts series marked stale by MarkStale over the
	// database's lifetime (the senescence watchdog's intervention count).
	StaleMarked uint64

	retained  int // samples currently held across all ring buffers
	ringSlots int // ring-buffer capacity allocated across all series

	// Telemetry instrument handles (nil = disabled); see EnableTelemetry.
	telRecords    *telemetry.Counter
	telStaleMarks *telemetry.Counter
	telFreshHits  *telemetry.Counter
	telFreshMiss  *telemetry.Counter
	telSeries     *telemetry.Gauge
	telRetained   *telemetry.Gauge
	telSketchB    *telemetry.Gauge
}

// NewDatabase returns an empty store.
func NewDatabase() *Database {
	return &Database{series: make(map[dbKey]*dbSeries)}
}

// EnableTelemetry registers the database's instruments under prefix:
// records stored, series marked stale by the watchdog, the hit/miss
// split of senescence-gated Fresh queries (the live fresh-query hit
// rate), and the memory-footprint gauges (series count, retained
// samples, sketch bytes). A nil registry leaves the database
// uninstrumented.
func (db *Database) EnableTelemetry(reg *telemetry.Registry, prefix string) {
	db.telRecords = reg.Counter(prefix + ".records")
	db.telStaleMarks = reg.Counter(prefix + ".stale_marks")
	db.telFreshHits = reg.Counter(prefix + ".fresh_hits")
	db.telFreshMiss = reg.Counter(prefix + ".fresh_misses")
	db.telSeries = reg.Gauge(prefix + ".series")
	db.telRetained = reg.Gauge(prefix + ".retained_samples")
	db.telSketchB = reg.Gauge(prefix + ".sketch_bytes")
}

// EnableSketches turns on per-series quantile sketches: every subsequent
// Record of a successful measurement also feeds the series' sketch, and
// the Quantile / SketchSummary / MergeSketchInto queries become live.
// t configures the stall/micro-stall levels applied to every series
// (zero thresholds disable those counters). Must be called before the
// first Record — sketches cannot retroactively cover history.
func (db *Database) EnableSketches(t sketch.Thresholds) {
	if db.Records > 0 {
		panic("core: EnableSketches must be called before the first Record")
	}
	db.sketchOn = true
	db.sketchTh = t
}

// BatchSink receives closed sample batches from the durable results seam.
// *results.Writer satisfies it; the indirection keeps the sim-facing core
// free of any dependency on the results encoding. Everything passed is
// derived from simulation state (atNS is virtual time), so sink content is
// deterministic. The samples slice is only valid during the call.
type BatchSink interface {
	WriteBatch(batch, metric, unit string, atNS int64, samples []float64) error
}

// DefaultResultsBatch is the per-series batch size EnableResults uses when
// given a non-positive one.
const DefaultResultsBatch = 32

// EnableResults streams every series' successful values to sink in
// batches of batchSamples — the durable results pipeline's producer seam.
// Like the telemetry and sketch seams it is off by default and purely
// observational: it consumes no simulated time and changes no monitor
// behavior. Must be called before the first Record. Call FlushResults at
// the end of the run to drain partial batches and collect any sink error.
func (db *Database) EnableResults(sink BatchSink, batchSamples int) {
	if db.Records > 0 {
		panic("core: EnableResults must be called before the first Record")
	}
	if batchSamples <= 0 {
		batchSamples = DefaultResultsBatch
	}
	db.resSink = sink
	db.resBatch = batchSamples
}

// flushResults closes the series' pending batch and hands it to the sink.
// The first sink failure is retained for FlushResults; later batches are
// still offered (the sink's own error handling decides whether to drop).
func (db *Database) flushResults(key dbKey, s *dbSeries) {
	n := s.rn
	s.rn = 0
	if n == 0 {
		return
	}
	err := db.resSink.WriteBatch(string(key.path), key.metric.String(),
		key.metric.Unit(), int64(s.rAt), s.rbuf[:n])
	if err != nil && db.resErr == nil {
		db.resErr = err
	}
}

// FlushResults drains every series' partially filled batch, in sorted
// (path, metric) order for determinism, and returns the first error the
// sink reported over the database's lifetime. It is safe to call when
// results are disabled (a no-op returning nil) and may be called more
// than once; samples recorded after a flush open fresh batches.
func (db *Database) FlushResults() error {
	if db.resSink == nil {
		return nil
	}
	keys := make([]dbKey, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		db.flushResults(k, db.series[k])
	}
	return db.resErr
}

// Record stores a measurement as the current value, updates last-known on
// success, and appends to history, evicting the oldest retained sample once
// the series is at depth.
//
//perf:noalloc
func (db *Database) Record(m Measurement) {
	if db.depthLocked {
		if db.HistoryDepth != db.lockedDepth {
			panic("core: Database.HistoryDepth changed after the first Record")
		}
	} else {
		db.lockedDepth = db.HistoryDepth
		db.depthLocked = true
	}
	key := dbKey{m.Path, m.Metric}
	s := db.series[key]
	if s == nil {
		depth := db.HistoryDepth
		if depth <= 0 {
			depth = DefaultHistoryDepth
		}
		//lint:allow heapescape series creation: once per (path, metric), never on the steady recording path
		s = &dbSeries{ring: make([]Measurement, depth)}
		if db.sketchOn {
			//lint:allow heapescape sketch creation: once per (path, metric), never on the steady recording path
			s.sk = &sketch.Sketch{}
			s.sk.SetThresholds(db.sketchTh)
		}
		if db.resSink != nil {
			//lint:allow heapescape results-batch buffer creation: once per (path, metric), never on the steady recording path
			s.rbuf = make([]float64, db.resBatch)
		}
		db.series[key] = s
		db.ringSlots += depth
		db.telSeries.Set(float64(len(db.series)))
		db.telSketchB.Set(float64(db.sketchBytes()))
	}
	s.current = m
	s.stale = false
	if m.OK() {
		s.lastKnown = m
		s.hasLast = true
		if s.sk != nil {
			s.sk.Update(m.Value)
		}
		if s.rbuf != nil {
			s.rbuf[s.rn] = m.Value
			s.rAt = m.TakenAt
			s.rn++
			if s.rn == len(s.rbuf) {
				db.flushResults(key, s)
			}
		}
	}
	if s.count < len(s.ring) {
		s.ring[(s.head+s.count)%len(s.ring)] = m
		s.count++
		db.retained++
		db.telRetained.Set(float64(db.retained))
	} else {
		s.ring[s.head] = m
		s.head = (s.head + 1) % len(s.ring)
	}
	db.Records++
	db.telRecords.Inc()
}

// sketchBytes is the memory held by per-series sketches.
func (db *Database) sketchBytes() int {
	if !db.sketchOn {
		return 0
	}
	var s sketch.Sketch
	return len(db.series) * s.Bytes()
}

// Current returns the latest sample for the series.
func (db *Database) Current(path PathID, metric metrics.Metric) (Measurement, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil {
		return Measurement{}, false
	}
	return s.current, true
}

// LastKnown returns the latest successful sample.
func (db *Database) LastKnown(path PathID, metric metrics.Metric) (Measurement, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil || !s.hasLast {
		return Measurement{}, false
	}
	return s.lastKnown, true
}

// History returns a copy of up to n retained samples, oldest first; n <= 0
// returns all retained. It returns nil — never an empty non-nil slice —
// when the series is unknown or holds no samples. Internal consumers that
// only scan should prefer EachHistory, which does not copy.
func (db *Database) History(path PathID, metric metrics.Metric, n int) []Measurement {
	s := db.series[dbKey{path, metric}]
	cnt := historyCount(s, n)
	if cnt == 0 {
		return nil
	}
	out := make([]Measurement, cnt)
	start := s.head + s.count - cnt
	for i := range out {
		out[i] = s.ring[(start+i)%len(s.ring)]
	}
	return out
}

// EachHistory visits up to n retained samples (n <= 0 meaning all), oldest
// first, without copying the series; it stops early when fn returns false.
// The visited values are only valid during the call.
func (db *Database) EachHistory(path PathID, metric metrics.Metric, n int, fn func(Measurement) bool) {
	s := db.series[dbKey{path, metric}]
	if cnt := historyCount(s, n); cnt > 0 {
		s.each(cnt, fn)
	}
}

// each visits the newest cnt retained samples oldest first, stopping early
// when fn returns false. cnt must be in [1, s.count].
func (s *dbSeries) each(cnt int, fn func(Measurement) bool) {
	start := s.head + s.count - cnt
	for i := 0; i < cnt; i++ {
		if !fn(s.ring[(start+i)%len(s.ring)]) {
			return
		}
	}
}

// HistoryLen reports how many samples the series currently retains.
func (db *Database) HistoryLen(path PathID, metric metrics.Metric) int {
	return historyCount(db.series[dbKey{path, metric}], 0)
}

// historyCount resolves the request size n against what s retains.
func historyCount(s *dbSeries, n int) int {
	if s == nil {
		return 0
	}
	if n > 0 && n < s.count {
		return n
	}
	return s.count
}

// Senescence returns the age of the current sample at time now — the
// fidelity component of §4.4. ok is false when nothing has been recorded.
func (db *Database) Senescence(now time.Duration, path PathID, metric metrics.Metric) (time.Duration, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil {
		return 0, false
	}
	return now - s.current.TakenAt, true
}

// Fresh returns the current sample only when it is trustworthy at virtual
// time now: not marked stale by the senescence watchdog and, when ttl > 0,
// no older than ttl. A stale or over-age sample reports ok=false — stale
// data is missing data, not evidence of health.
func (db *Database) Fresh(now time.Duration, path PathID, metric metrics.Metric, ttl time.Duration) (Measurement, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.stale {
		db.telFreshMiss.Inc()
		return Measurement{}, false
	}
	if ttl > 0 && now-s.current.TakenAt > ttl {
		db.telFreshMiss.Inc()
		return Measurement{}, false
	}
	db.telFreshHits.Inc()
	return s.current, true
}

// MarkStale marks every series whose current sample is older than ttl at
// virtual time now, and returns how many it newly marked. The next Record
// on a series clears its mark. The senescence watchdog (see
// DirectorBase.StartSenescenceWatchdog) calls this periodically.
func (db *Database) MarkStale(now, ttl time.Duration) int {
	marked := 0
	for _, s := range db.series {
		if !s.stale && now-s.current.TakenAt > ttl {
			s.stale = true
			marked++
		}
	}
	db.StaleMarked += uint64(marked)
	db.telStaleMarks.Add(uint64(marked))
	return marked
}

// StaleCount reports how many series are currently marked stale.
func (db *Database) StaleCount() int {
	n := 0
	for _, s := range db.series {
		if s.stale {
			n++
		}
	}
	return n
}

// MaxSenescence returns the largest current-sample age across all series —
// the worst-case data staleness a resource manager decision would act on.
func (db *Database) MaxSenescence(now time.Duration) time.Duration {
	var max time.Duration
	for _, s := range db.series {
		if age := now - s.current.TakenAt; age > max {
			max = age
		}
	}
	return max
}

// Series reports the number of (path, metric) series recorded.
func (db *Database) Series() int { return len(db.series) }

// Quantile returns the estimated p-quantile of the series' successful
// observations — the bounded-memory replacement for scanning history.
// ok is false when the series is unknown or sketches are disabled.
func (db *Database) Quantile(path PathID, metric metrics.Metric, p float64) (float64, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.sk == nil || s.sk.Count() == 0 {
		return 0, false
	}
	return s.sk.Quantile(p), true
}

// SketchSummary returns the series' full quantile digest (count, extremes,
// mean, p50/p95/p99, stall counters). ok is false when the series is
// unknown or sketches are disabled.
func (db *Database) SketchSummary(path PathID, metric metrics.Metric) (sketch.Summary, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.sk == nil || s.sk.Count() == 0 {
		return sketch.Summary{}, false
	}
	return s.sk.Summary(), true
}

// MergeSketchInto folds the series' sketch into dst without modifying the
// database — the export primitive hierarchical directors federate on. It
// reports whether the series existed with a live sketch.
func (db *Database) MergeSketchInto(dst *sketch.Sketch, path PathID, metric metrics.Metric) bool {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.sk == nil || s.sk.Count() == 0 {
		return false
	}
	dst.Merge(s.sk)
	return true
}

// Footprint is the database's memory accounting, per the telemetry gauges
// and experiment E15's bytes/series axis.
type Footprint struct {
	Series      int // (path, metric) series recorded
	Retained    int // samples currently held in ring buffers
	RingBytes   int // bytes allocated for ring-buffer history
	SketchBytes int // bytes held by per-series quantile sketches
}

// Footprint reports the database's current memory accounting.
func (db *Database) Footprint() Footprint {
	return Footprint{
		Series:      len(db.series),
		Retained:    db.retained,
		RingBytes:   db.ringSlots * int(unsafe.Sizeof(Measurement{})),
		SketchBytes: db.sketchBytes(),
	}
}
