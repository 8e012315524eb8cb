// Package core implements the paper's primary contribution: the generalized
// network resource monitor architecture of §4.1 (Figure 2).
//
// A monitor has three components: network sensors that collect performance
// data, a sensor director that drives collection in response to resource
// manager requests, and a measurement database that supports both
// current-value and last-known-value reporting. The resource manager
// submits a list of application-level paths and the metrics to monitor for
// each; the monitor reports (path, metric)-tuples back synchronously
// (Query) or asynchronously (Reports).
//
// Two instantiations live in sibling packages: hifi (the NTTCP-based
// high-fidelity monitor of §5.1) and cots (the SNMP/RMON-based scalable
// monitor of §5.2); hybrid combines them (§7).
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// ProcessRef names an application process on a host — the unit the dynamic
// path abstraction of [2] is built from.
type ProcessRef struct {
	Host    netsim.Addr
	Process string
}

// String renders host/process.
func (r ProcessRef) String() string {
	if r.Process == "" {
		return string(r.Host)
	}
	return string(r.Host) + "/" + r.Process
}

// PathID identifies a path; it is derived from the hop list.
type PathID string

// Path is an ordered series of application processes whose communications
// are critical to the system (§3). Two processes make a point-to-point
// path; longer chains are composed of adjacent segments.
type Path struct {
	ID   PathID
	Hops []ProcessRef
}

// NewPath builds a path and derives its ID.
func NewPath(hops ...ProcessRef) Path {
	parts := make([]string, len(hops))
	for i, h := range hops {
		parts[i] = h.String()
	}
	return Path{ID: PathID(strings.Join(parts, "->")), Hops: hops}
}

// Segments returns the adjacent (from, to) pairs of the path.
func (p Path) Segments() [][2]ProcessRef {
	if len(p.Hops) < 2 {
		return nil
	}
	segs := make([][2]ProcessRef, len(p.Hops)-1)
	for i := 0; i < len(p.Hops)-1; i++ {
		segs[i] = [2]ProcessRef{p.Hops[i], p.Hops[i+1]}
	}
	return segs
}

// Valid reports whether the path has at least two hops.
func (p Path) Valid() bool { return len(p.Hops) >= 2 }

// CrossProductPaths builds the Figure 4(b) path list: one path from every
// server to every client, C·S paths in total.
func CrossProductPaths(servers, clients []ProcessRef) []Path {
	paths := make([]Path, 0, len(servers)*len(clients))
	for _, s := range servers {
		for _, c := range clients {
			paths = append(paths, NewPath(s, c))
		}
	}
	return paths
}

// Quality grades a measurement's accuracy component of fidelity (§4.4):
// sensors at the Application & Support layer measure the metric directly;
// Transfer or Media layer sensors only approximate it (§4.3).
type Quality int

// Measurement qualities.
const (
	// QualityDirect marks application-layer measurement.
	QualityDirect Quality = iota
	// QualityApproximate marks lower-layer approximation (counter deltas,
	// utilization).
	QualityApproximate
)

func (q Quality) String() string {
	if q == QualityApproximate {
		return "approximate"
	}
	return "direct"
}

// Measurement is one (path, metric)-tuple as delivered to the resource
// manager.
type Measurement struct {
	Path    PathID
	Metric  metrics.Metric
	Value   float64
	Quality Quality
	// TakenAt is the virtual time the data was collected; its age is the
	// senescence component of fidelity.
	TakenAt time.Duration
	// Err, when non-empty, marks a failed collection; Value is undefined.
	Err string
}

// OK reports whether the collection succeeded.
func (m Measurement) OK() bool { return m.Err == "" }

// Reached interprets a reachability measurement.
func (m Measurement) Reached() bool {
	return m.Metric == metrics.Reachability && m.OK() && m.Value >= 0.5
}

func (m Measurement) String() string {
	if !m.OK() {
		return fmt.Sprintf("(%s, %s) = error: %s", m.Path, m.Metric, m.Err)
	}
	return fmt.Sprintf("(%s, %s) = %g %s [%s @%v]", m.Path, m.Metric, m.Value,
		m.Metric.Unit(), m.Quality, m.TakenAt)
}

// ReportMode selects how results flow back to the resource manager (§4.1:
// "synchronously or asynchronously").
type ReportMode int

// Report modes.
const (
	// ReportOnDemand records into the database only; the manager pulls
	// current or last-known values with Query.
	ReportOnDemand ReportMode = iota
	// ReportAsync additionally streams every measurement to Reports.
	ReportAsync
)

// Request is the resource manager's monitoring order: the paths to watch
// and the metrics wanted for each (§4.1).
type Request struct {
	Paths   []Path
	Metrics []metrics.Metric
	Mode    ReportMode
}

// Pairs enumerates the (path, metric) combinations of the request.
func (r Request) Pairs() int { return len(r.Paths) * len(r.Metrics) }

// Sensor collects one metric for one path segment. Implementations decide
// the instrumentation point (Figure 3) and therefore the quality.
type Sensor interface {
	// Name identifies the sensor type in diagnostics.
	Name() string
	// Measure collects the metric for the segment from->to, blocking the
	// proc for as long as the collection takes.
	Measure(p *sim.Proc, from, to ProcessRef, metric metrics.Metric) Measurement
}

// Monitor is the resource manager's view of a network resource monitor.
type Monitor interface {
	// Submit installs a monitoring request, replacing the previous one.
	Submit(req Request)
	// Query returns the current value from the database (which may be a
	// failed measurement) — current-value reporting.
	Query(path PathID, metric metrics.Metric) (Measurement, bool)
	// LastKnown returns the most recent successful measurement —
	// last-known-value reporting.
	LastKnown(path PathID, metric metrics.Metric) (Measurement, bool)
	// Reports returns the asynchronous (path, metric)-tuple stream.
	Reports() *sim.Queue[Measurement]
	// Stop ceases collection.
	Stop()
}

// FreshQuerier is the senescence-aware extension of Monitor: QueryFresh
// answers like Query, but reports ok=false when the database's entry has
// been marked stale by a senescence watchdog or is older than ttl at
// virtual time now. Monitors built on DirectorBase implement it.
type FreshQuerier interface {
	QueryFresh(path PathID, metric metrics.Metric, now, ttl time.Duration) (Measurement, bool)
}

// QuantileQuerier is the streaming-analytics extension of Monitor: it
// answers distributional queries (p-quantiles and full digests) from
// bounded-memory per-series sketches instead of scanning history.
// Monitors built on DirectorBase implement it once their database has
// sketches enabled (see Database.EnableSketches).
type QuantileQuerier interface {
	Quantile(path PathID, metric metrics.Metric, p float64) (float64, bool)
	QuantileSummary(path PathID, metric metrics.Metric) (sketch.Summary, bool)
}

// ComposeSegments folds per-segment measurements into a path-level value:
// throughput is the bottleneck minimum, latency the sum, reachability the
// conjunction. Any failed segment fails the path.
func ComposeSegments(metric metrics.Metric, segs []Measurement) Measurement {
	if len(segs) == 0 {
		return Measurement{Metric: metric, Err: "no segments"}
	}
	out := Measurement{Metric: metric, Quality: QualityDirect}
	for i, s := range segs {
		if !s.OK() {
			out.Err = s.Err
			return out
		}
		if s.Quality == QualityApproximate {
			out.Quality = QualityApproximate
		}
		if s.TakenAt > out.TakenAt {
			out.TakenAt = s.TakenAt
		}
		switch metric {
		case metrics.Throughput:
			if i == 0 || s.Value < out.Value {
				out.Value = s.Value
			}
		case metrics.OneWayLatency:
			out.Value += s.Value
		case metrics.Reachability:
			if i == 0 {
				out.Value = 1
			}
			if s.Value < 0.5 {
				out.Value = 0
			}
		}
	}
	return out
}
