package core

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

func TestDatabaseSketchQuantile(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	p := PathID("a->b")
	rng := rand.New(rand.NewSource(5))
	var xs []float64
	for i := 0; i < 500; i++ {
		v := 10 + rng.Float64()*90
		xs = append(xs, v)
		db.Record(Measurement{Path: p, Metric: metrics.OneWayLatency, Value: v})
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, ok := db.Quantile(p, metrics.OneWayLatency, q)
		if !ok {
			t.Fatalf("Quantile(%v) not ok with sketches enabled", q)
		}
		exact := sketch.Exact(xs, q)
		if e := relErr(got, exact); e > 0.02 {
			t.Errorf("Quantile(%v) = %v, exact %v: rel err %.4f > 2%%", q, got, exact, e)
		}
	}
	sum, ok := db.SketchSummary(p, metrics.OneWayLatency)
	if !ok || sum.Count != 500 {
		t.Fatalf("SketchSummary: ok=%v count=%d, want 500", ok, sum.Count)
	}
}

func TestDatabaseSketchDisabled(t *testing.T) {
	db := NewDatabase()
	p := PathID("a->b")
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 1})
	if _, ok := db.Quantile(p, metrics.Throughput, 0.5); ok {
		t.Error("Quantile ok without EnableSketches")
	}
	if _, ok := db.SketchSummary(p, metrics.Throughput); ok {
		t.Error("SketchSummary ok without EnableSketches")
	}
	var agg sketch.Sketch
	if db.MergeSketchInto(&agg, p, metrics.Throughput) {
		t.Error("MergeSketchInto ok without EnableSketches")
	}
}

func TestDatabaseSketchSkipsFailures(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	p := PathID("a->b")
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 10})
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Err: "unreachable"})
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 20})
	sum, ok := db.SketchSummary(p, metrics.Throughput)
	if !ok || sum.Count != 2 {
		t.Fatalf("sketch count = %d, want 2 (failures must not feed the sketch)", sum.Count)
	}
	if sum.Min != 10 || sum.Max != 20 {
		t.Errorf("min/max = %v/%v, want 10/20", sum.Min, sum.Max)
	}
}

func TestDatabaseSketchThresholds(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{Stall: 100, MicroStall: 50})
	p := PathID("a->b")
	for _, v := range []float64{10, 60, 150, 40, 200} {
		db.Record(Measurement{Path: p, Metric: metrics.OneWayLatency, Value: v})
	}
	sum, _ := db.SketchSummary(p, metrics.OneWayLatency)
	if sum.Stalls != 2 || sum.MicroStalls != 1 {
		t.Errorf("stalls/micro = %d/%d, want 2/1", sum.Stalls, sum.MicroStalls)
	}
}

func TestEnableSketchesAfterRecordPanics(t *testing.T) {
	db := NewDatabase()
	db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: 1})
	defer func() {
		if recover() == nil {
			t.Error("EnableSketches after Record did not panic")
		}
	}()
	db.EnableSketches(sketch.Thresholds{})
}

// TestHistoryDepthLocked: HistoryDepth is captured at the database's first
// Record; changing it afterwards panics rather than silently giving new
// series a different depth.
func TestHistoryDepthLocked(t *testing.T) {
	db := NewDatabase()
	db.HistoryDepth = 8
	db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: 1})
	db.HistoryDepth = 16
	defer func() {
		if recover() == nil {
			t.Error("HistoryDepth change after first Record did not panic")
		}
	}()
	db.Record(Measurement{Path: "q", Metric: metrics.Throughput, Value: 2})
}

func TestDatabaseFootprint(t *testing.T) {
	db := NewDatabase()
	db.HistoryDepth = 4
	db.EnableSketches(sketch.Thresholds{})
	for i := 0; i < 10; i++ {
		db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: float64(i)})
	}
	db.Record(Measurement{Path: "q", Metric: metrics.Throughput, Value: 1})
	fp := db.Footprint()
	if fp.Series != 2 {
		t.Errorf("Series = %d, want 2", fp.Series)
	}
	if fp.Retained != 5 { // p's ring holds 4 of its 10, q holds 1
		t.Errorf("Retained = %d, want 5", fp.Retained)
	}
	if fp.RingBytes != 2*4*64 { // 2 series x depth 4 x 64 B/Measurement
		t.Errorf("RingBytes = %d, want %d", fp.RingBytes, 2*4*64)
	}
	var s sketch.Sketch
	if fp.SketchBytes != 2*s.Bytes() {
		t.Errorf("SketchBytes = %d, want %d", fp.SketchBytes, 2*s.Bytes())
	}
}

func TestDatabaseFootprintTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	db.EnableTelemetry(reg, "db")
	for i := 0; i < 3; i++ {
		db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: float64(i)})
	}
	db.Record(Measurement{Path: "q", Metric: metrics.Throughput, Value: 1})
	if got := reg.Gauge("db.series").Value(); got != 2 {
		t.Errorf("db.series gauge = %v, want 2", got)
	}
	if got := reg.Gauge("db.retained_samples").Value(); got != 4 {
		t.Errorf("db.retained_samples gauge = %v, want 4", got)
	}
	var s sketch.Sketch
	if got := reg.Gauge("db.sketch_bytes").Value(); got != float64(2*s.Bytes()) {
		t.Errorf("db.sketch_bytes gauge = %v, want %v", got, 2*s.Bytes())
	}
}

func TestDatabaseMergeSketchInto(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	var want sketch.Sketch
	for i := 0; i < 300; i++ {
		v := float64(i % 37)
		db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: v})
		want.Update(v)
	}
	var agg sketch.Sketch
	if !db.MergeSketchInto(&agg, "p", metrics.Throughput) {
		t.Fatal("MergeSketchInto reported no sketch")
	}
	if agg != want {
		t.Error("merged-from-empty sketch differs from directly-fed sketch")
	}
	// The export must not have mutated the database's own sketch.
	sum, _ := db.SketchSummary("p", metrics.Throughput)
	if sum.Count != 300 {
		t.Errorf("database sketch count = %d after export, want 300", sum.Count)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
