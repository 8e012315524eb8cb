package main

import (
	"encoding/csv"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// exportFixture returns a database with two series and the request that
// monitors them, paths and metrics listed out of order.
func exportFixture() (*core.Database, core.Request) {
	db := core.NewDatabase()
	db.Record(core.Measurement{Path: "a->b", Metric: metrics.Throughput, Value: 1e6, TakenAt: time.Second})
	db.Record(core.Measurement{Path: "a->b", Metric: metrics.Throughput, Value: 3e6, TakenAt: 2 * time.Second})
	db.Record(core.Measurement{Path: "a->b", Metric: metrics.Throughput, Err: "timeout", TakenAt: 3 * time.Second})
	db.Record(core.Measurement{Path: "a->c", Metric: metrics.Reachability, Value: 1, TakenAt: time.Second})
	req := core.Request{
		Paths:   []core.Path{{ID: "a->c"}, {ID: "a->b"}},
		Metrics: []metrics.Metric{metrics.Reachability, metrics.Throughput},
	}
	return db, req
}

func TestWriteCSV(t *testing.T) {
	db, req := exportFixture()
	var sb strings.Builder
	if err := writeCSV(&sb, db, req); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 { // header + 4 samples
		t.Fatalf("records = %d: %q", len(records), sb.String())
	}
	if records[0][0] != "path" || len(records[0]) != 7 {
		t.Fatalf("header = %v", records[0])
	}
	// Ordered by path then metric; a->b first.
	if records[1][0] != "a->b" || records[1][2] != "1e+06" {
		t.Fatalf("first row = %v", records[1])
	}
	if records[3][6] != "timeout" {
		t.Fatalf("error row = %v", records[3])
	}
	if records[4][0] != "a->c" || records[4][1] != "reachability" {
		t.Fatalf("last row = %v", records[4])
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestWriteCSVReturnsWriteError(t *testing.T) {
	db, req := exportFixture()
	want := errors.New("disk full")
	if err := writeCSV(failingWriter{want}, db, req); !errors.Is(err, want) {
		t.Fatalf("writeCSV error = %v, want %v", err, want)
	}
}
