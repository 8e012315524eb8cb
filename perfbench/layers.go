package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/results"
)

// metricDef is one per-layer metric. The name's first element is the
// layer: the repository module whose work it counts.
type metricDef struct {
	name, unit string
	// det marks a count of simulated work: deterministic per seed, part of
	// the replica digest, and compared at tolerance 0 across traced runs.
	det bool
	// shardDep marks a deterministic count that depends on the shard
	// count, so it is left out of the 1-shard-versus-N-shard comparison.
	shardDep bool
}

// layerDefs lists every per-layer metric in report order. A metric a
// workload does not exercise reads 0 on it (no SNMP on rtds_hifi, no
// windows off wan_sharded).
var layerDefs = func() []metricDef {
	d := []metricDef{
		{name: "sim.events", unit: "count", det: true},
		{name: "sim.ns_per_event", unit: "ns"},
		{name: "sim.windows", unit: "count", det: true, shardDep: true},
		{name: "sim.xshard_msgs", unit: "count", det: true, shardDep: true},
		{name: "sim.ns_per_window", unit: "ns"},
		{name: "sim.self_ms", unit: "ms"},
		{name: "netsim.pkts_sent", unit: "count", det: true},
		{name: "netsim.pkts_delivered", unit: "count", det: true},
		{name: "netsim.in_flight", unit: "count", det: true},
		{name: "netsim.queued", unit: "count", det: true},
	}
	for r := 0; r < nReasons; r++ {
		d = append(d, metricDef{name: "netsim.drops." + netsim.DropReason(r).String(), unit: "count", det: true})
	}
	return append(d, []metricDef{
		{name: "netsim.frames", unit: "count", det: true},
		{name: "netsim.octets", unit: "B", det: true},
		{name: "netsim.deferrals", unit: "count", det: true},
		{name: "netsim.allocs_per_pkt", unit: "count"},
		{name: "netsim.bytes_per_pkt", unit: "B"},
		{name: "hifi.sweeps", unit: "count", det: true},
		{name: "nttcp.bytes", unit: "B", det: true},
		{name: "cots.sweeps", unit: "count", det: true},
		{name: "snmp.pdus", unit: "count", det: true},
		{name: "snmp.requests", unit: "count", det: true},
		{name: "snmp.timeouts", unit: "count", det: true},
		{name: "snmp.decode_ns", unit: "ns"},
		{name: "snmp.encode_ns", unit: "ns"},
		{name: "snmp.handle_ns", unit: "ns"},
		{name: "snmp.decode_allocs", unit: "count"},
		{name: "snmp.self_ms", unit: "ms"},
		{name: "director.traps_in", unit: "count", det: true},
		{name: "director.traps_dropped", unit: "count", det: true},
		{name: "director.traps_coalesced", unit: "count", det: true},
		{name: "director.traps_delivered", unit: "count", det: true},
		{name: "director.reexports", unit: "count", det: true},
		{name: "director.records_in", unit: "count", det: true},
		{name: "director.offer_ns", unit: "ns"},
		{name: "director.self_ms", unit: "ms"},
		{name: "core.records", unit: "count", det: true},
		{name: "core.series", unit: "count", det: true},
		{name: "core.retained", unit: "count", det: true},
		{name: "core.sketch_bytes", unit: "B", det: true},
		{name: "core.ring_bytes", unit: "B", det: true},
		{name: "core.read_ns_p50", unit: "ns"},
		{name: "core.read_ns_p99", unit: "ns"},
		{name: "core.self_ms", unit: "ms"},
		{name: "runtime.gc_cycles", unit: "count"},
		{name: "runtime.gc_pause_ms", unit: "ms"},
		{name: "host.sim_speed_raw", unit: "s/s"},
		{name: "host.ref_ms", unit: "ms"},
		{name: "setup.topo_s", unit: "s"},
		{name: "setup.monitors_s", unit: "s"},
		{name: "trace.overhead_frac", unit: "ratio"},
	}...)
}()

// counts holds a replica's deterministic per-layer counts by name.
type counts map[string]float64

// layerCounts gathers the counts every workload shares; the workload's
// hook adds its own layers.
func (s *scenario) layerCounts(events int, l packetLedger) counts {
	c := counts{"sim.events": float64(events)}
	if s.group != nil {
		c["sim.windows"] = float64(s.group.Windows())
		c["sim.xshard_msgs"] = float64(s.group.CrossShardMessages())
	}
	c["netsim.pkts_sent"] = float64(l.sent)
	c["netsim.pkts_delivered"] = float64(l.delivered)
	c["netsim.in_flight"] = float64(l.inFlight())
	c["netsim.queued"] = float64(l.queued)
	for r, n := range l.drops {
		c["netsim.drops."+netsim.DropReason(r).String()] = float64(n)
	}
	for _, seg := range s.segs {
		st := seg.Stats()
		c["netsim.frames"] += float64(st.Frames)
		c["netsim.octets"] += float64(st.Octets)
		c["netsim.deferrals"] += float64(st.Deferrals)
	}
	for _, t := range s.taps {
		c["snmp.pdus"] += float64(t.snmpPDUs)
	}
	for _, db := range s.dbs {
		f := db.Footprint()
		c["core.records"] += float64(db.Records)
		c["core.series"] += float64(f.Series)
		c["core.retained"] += float64(f.Retained)
		c["core.sketch_bytes"] += float64(f.SketchBytes)
		c["core.ring_bytes"] += float64(f.RingBytes)
	}
	if s.counts != nil {
		s.counts(c)
	}
	for name := range c {
		if _, ok := defByName[name]; !ok {
			panic("perfbench: count " + name + " has no metric definition")
		}
	}
	return c
}

var defByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(layerDefs))
	for _, d := range layerDefs {
		m[d.name] = d
	}
	return m
}()

// layerMetrics computes every per-layer metric, in layerDefs order. Counts
// come from the first traced replica (all traced replicas agree, which
// measureTraced checks); host numbers are medians, span-based ones over
// the traced replicas and the rest over the untraced ones.
func (r *result) layerMetrics() []named {
	t0 := r.traced[0]
	host := map[string]float64{
		"sim.ns_per_event": medianOf(r.reps, func(o *replica) float64 {
			return perUnit(float64(o.run), o.counts["sim.events"])
		}),
		"sim.ns_per_window": medianOf(r.reps, func(o *replica) float64 {
			return perUnit(float64(o.run), o.counts["sim.windows"])
		}),
		"netsim.allocs_per_pkt": medianOf(r.reps, func(o *replica) float64 {
			return perUnit(float64(o.mallocs), o.counts["netsim.pkts_sent"])
		}),
		"netsim.bytes_per_pkt": medianOf(r.reps, func(o *replica) float64 {
			return perUnit(float64(o.alloc), o.counts["netsim.pkts_sent"])
		}),
		"snmp.decode_allocs": medianOf(r.traced, func(o *replica) float64 { return o.decodeAllocs }),
		"runtime.gc_cycles":  medianOf(r.reps, func(o *replica) float64 { return float64(o.gcCycles) }),
		"runtime.gc_pause_ms": medianOf(r.reps, func(o *replica) float64 {
			return float64(o.gcPause) / float64(time.Millisecond)
		}),
		"setup.topo_s":     medianOf(r.reps, func(o *replica) float64 { return o.setupTopo.Seconds() }),
		"setup.monitors_s": medianOf(r.reps, func(o *replica) float64 { return o.setupMonitors.Seconds() }),
	}
	for name := range t0.traceStats {
		name := name
		host[name] = medianOf(r.traced, func(o *replica) float64 { return o.traceStats[name] })
	}
	if untraced := medianOf(r.reps, rawSpeed); untraced > 0 {
		host["trace.overhead_frac"] = 1 - medianOf(r.traced, rawSpeed)/untraced
	}
	host["host.sim_speed_raw"] = medianOf(r.reps, rawSpeed)
	host["host.ref_ms"] = medianOf(r.reps, func(o *replica) float64 { return float64(o.ref) / float64(time.Millisecond) })

	out := make([]named, 0, len(layerDefs))
	for _, d := range layerDefs {
		v := host[d.name]
		if d.det {
			v = t0.counts[d.name]
		}
		out = append(out, named{d.name, d.unit, v})
	}
	return out
}

func perUnit(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// spanMetrics computes a traced replica's span-based per-layer metrics:
// per-call times of the SNMP replay, the trap offers and the manager's
// reads, and each layer's summed self time.
func spanMetrics(spans []span) map[string]float64 {
	m := map[string]float64{
		"snmp.decode_ns":    spanQuantile(spans, "decode", 0.5),
		"snmp.encode_ns":    spanQuantile(spans, "encode", 0.5),
		"snmp.handle_ns":    spanQuantile(spans, "handle", 0.5),
		"director.offer_ns": spanQuantile(spans, "OfferTrap", 0.5),
		"core.read_ns_p50":  spanQuantile(spans, "read", 0.5),
		"core.read_ns_p99":  spanQuantile(spans, "read", 0.99),
	}
	self := layerSelf(spans)
	for _, layer := range []string{"sim", "snmp", "director", "core"} {
		m[layer+".self_ms"] = float64(self[layer]) / float64(time.Millisecond)
	}
	return m
}

// spanQuantile is the nearest-rank q-quantile, in ns, of the durations of
// the spans with the given name; 0 when there are none.
func spanQuantile(spans []span, name string, q float64) float64 {
	var d []time.Duration
	for _, s := range spans {
		if s.name == name {
			d = append(d, s.dur)
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(quantileDur(d, q))
}

// layerSelf sums span self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.layer] += self[i]
	}
	return out
}

// measureTraced alternates untraced and traced replicas for the budget:
// the untraced ones give the host baseline the tracing overhead is taken
// against, the traced ones give the per-layer numbers. It writes the
// first traced replica's counts and spans as results streams under dir.
func measureTraced(w *workload, seed int64, budget time.Duration, dir string, h header) (result, error) {
	r := result{w: w}
	start := time.Now()
	for len(r.reps) < 2 || len(r.traced) < 2 || time.Since(start)+2*mean(r.reps) < budget {
		r.add(runReplica(w, seed, w.shards, nil), false)
		tr := runReplica(w, seed, w.shards, newTracer())
		r.add(tr, true)
		if !maps.Equal(tr.counts, r.traced[0].counts) {
			r.errs = append(r.errs, fmt.Errorf("traced replica %d: per-layer counts differ from the first traced replica's", len(r.traced)))
		}
	}
	r.checkShards(seed)
	return r, r.writeStreams(dir, h)
}

// writeStreams writes two results streams for the traced run, one record
// per (layer, metric), batched by layer:
//
//	<workload>-seed<N>.counts.jsonl   deterministic counts, one sample each;
//	                                  two runs diff at tolerance 0 with
//	                                  `results compare -tolerance 0`
//	<workload>-seed<N>.spans.jsonl    per-span self times in ns of the
//	                                  first traced replica
func (r *result) writeStreams(dir string, h header) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := results.RunMeta{Tool: "perfbench", Go: h.Go, Commit: h.Commit}
	scenario := "perfbench/" + r.w.name
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.w.name, h.Seed))
	horizon := int64(r.w.horizon)

	var recs []results.Record
	for _, d := range layerDefs {
		if d.det {
			layer, metric, _ := strings.Cut(d.name, ".")
			recs = append(recs, results.Record{Batch: layer, Metric: metric, Unit: d.unit,
				AtNS: horizon, Samples: []float64{r.traced[0].counts[d.name]}})
		}
	}
	if err := writeStream(base+".counts.jsonl", scenario, h.Shards, meta, recs); err != nil {
		return err
	}

	type key struct{ layer, name string }
	samples := make(map[key][]float64)
	var keys []key
	spans := r.traced[0].spans
	self := selfTimes(spans)
	for i, s := range spans {
		k := key{s.layer, s.name}
		if _, ok := samples[k]; !ok {
			keys = append(keys, k)
		}
		samples[k] = append(samples[k], float64(self[i]))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].name < keys[j].name
	})
	recs = recs[:0]
	for _, k := range keys {
		recs = append(recs, results.Record{Batch: k.layer, Metric: k.name + ".self_ns", Unit: "ns",
			AtNS: horizon, Samples: samples[k]})
	}
	return writeStream(base+".spans.jsonl", scenario, h.Shards, meta, recs)
}

func writeStream(path, scenario string, shards int, meta results.RunMeta, recs []results.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := results.NewWriter(f, scenario, shards, meta)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfbench: %s: %w", path, err)
	}
	return nil
}
