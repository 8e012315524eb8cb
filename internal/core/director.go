package core

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// DirectorBase is the common machinery of a sensor director: it owns the
// database, the asynchronous report stream, and the current request.
// Concrete directors (hifi, cots, hybrid) embed it and add their
// sensor-driving strategy.
type DirectorBase struct {
	DB *Database

	reports *sim.Queue[Measurement]
	req     Request
	haveReq bool
	stopped bool

	// Published counts measurements delivered.
	Published uint64
}

var _ QuantileQuerier = (*DirectorBase)(nil)

// NewDirectorBase wires a director with a fresh database and report queue.
func NewDirectorBase(k *sim.Kernel) DirectorBase {
	return DirectorBase{
		DB:      NewDatabase(),
		reports: sim.NewQueue[Measurement](k, 0),
	}
}

// Submit installs the request (Monitor interface).
func (d *DirectorBase) Submit(req Request) {
	d.req = req
	d.haveReq = true
}

// Request returns the active request and whether one is installed.
func (d *DirectorBase) Request() (Request, bool) { return d.req, d.haveReq }

// Stopped reports whether Stop was called.
func (d *DirectorBase) Stopped() bool { return d.stopped }

// Stop ceases collection (Monitor interface).
func (d *DirectorBase) Stop() { d.stopped = true }

// Publish records a measurement and, in async mode, streams it.
func (d *DirectorBase) Publish(m Measurement) {
	d.DB.Record(m)
	d.Published++
	if d.req.Mode == ReportAsync {
		d.reports.Put(m)
	}
}

// Query implements current-value reporting (Monitor interface).
func (d *DirectorBase) Query(path PathID, metric metrics.Metric) (Measurement, bool) {
	return d.DB.Current(path, metric)
}

// LastKnown implements last-known-value reporting (Monitor interface).
func (d *DirectorBase) LastKnown(path PathID, metric metrics.Metric) (Measurement, bool) {
	return d.DB.LastKnown(path, metric)
}

// QueryFresh implements senescence-aware current-value reporting
// (FreshQuerier): the current sample is returned only while it is neither
// marked stale by the watchdog nor older than ttl at virtual time now.
func (d *DirectorBase) QueryFresh(path PathID, metric metrics.Metric, now, ttl time.Duration) (Measurement, bool) {
	return d.DB.Fresh(now, path, metric, ttl)
}

// StartSenescenceWatchdog spawns a periodic sweeper on k that marks
// database entries stale once their age exceeds ttl, so queries through
// Fresh/QueryFresh treat them as missing. It returns the timer; the caller
// owns it and must Stop it when collection ends.
func (d *DirectorBase) StartSenescenceWatchdog(k *sim.Kernel, every, ttl time.Duration) sim.Timer {
	return k.Every(every, func() {
		d.DB.MarkStale(k.Now(), ttl)
	})
}

// Reports returns the asynchronous stream (Monitor interface).
func (d *DirectorBase) Reports() *sim.Queue[Measurement] { return d.reports }

// Database exposes the measurement store for export and analysis.
func (d *DirectorBase) Database() *Database { return d.DB }

// Quantile implements QuantileQuerier by delegating to the database's
// per-series sketch.
func (d *DirectorBase) Quantile(path PathID, metric metrics.Metric, p float64) (float64, bool) {
	return d.DB.Quantile(path, metric, p)
}

// QuantileSummary implements QuantileQuerier by delegating to the
// database's per-series sketch.
func (d *DirectorBase) QuantileSummary(path PathID, metric metrics.Metric) (sketch.Summary, bool) {
	return d.DB.SketchSummary(path, metric)
}
