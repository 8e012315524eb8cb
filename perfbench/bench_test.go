package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// shortHorizons keep each workload's timeline (warm-up, fault, storm)
// inside the run while cutting its length.
var shortHorizons = map[string]time.Duration{
	"rtds_hifi":   24 * time.Second,
	"cots_storm":  12 * time.Second,
	"wan_sharded": 8 * time.Second,
}

func short(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloads[name]
	w.horizon = shortHorizons[name]
	return &w
}

// TestWorkloadsPassChecks runs every workload at a short horizon, twice,
// and requires every check to pass and the two digests to agree.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := short(t, name)
			r := result{w: w}
			r.add(runReplica(w, 7, w.shards, nil), false)
			r.add(runReplica(w, 7, w.shards, newTracer()), true)
			if !r.correct() {
				t.Fatalf("checks failed: %v", r.errs)
			}
			o := r.first
			if o.reads == 0 || o.misses == 0 || o.detect <= 0 || o.monitorB == 0 {
				t.Errorf("degenerate run: reads=%d misses=%d detect=%v monitor octets=%d",
					o.reads, o.misses, o.detect, o.monitorB)
			}
		})
	}
}

// TestWANShardedMatchesOneShard is the sharded workload's transparency
// check; run it under -race, where a read scheduled on the wrong shard
// shows as a data race.
func TestWANShardedMatchesOneShard(t *testing.T) {
	w := short(t, "wan_sharded")
	one := runReplica(w, 3, 1, nil)
	two := runReplica(w, 3, 2, newTracer())
	for _, o := range []*replica{one, two} {
		if len(o.errs) > 0 {
			t.Fatalf("checks failed: %v", o.errs)
		}
	}
	if one.digest != two.digest {
		t.Fatalf("2-shard digest %016x != 1-shard digest %016x", two.digest, one.digest)
	}
	if two.counts["sim.xshard_msgs"] == 0 || two.counts["sim.windows"] == 0 {
		t.Fatalf("the 2-shard run did no cross-shard work: %v", two.counts)
	}
}

// TestTripwires proves that each check fails on the defect it guards
// against: a corrupted digest, a hidden packet, an unledgered trap.
func TestTripwires(t *testing.T) {
	w := short(t, "cots_storm")
	o := runReplica(w, 5, w.shards, nil)
	if len(o.errs) > 0 {
		t.Fatalf("clean run failed its checks: %v", o.errs)
	}

	bad := *o
	bad.digest ^= 1
	r := result{w: w}
	r.add(o, false)
	r.add(&bad, false)
	if r.correct() {
		t.Error("a corrupted digest passed the determinism check")
	}

	if err := o.packets.check(); err != nil {
		t.Fatalf("clean packet ledger failed: %v", err)
	}
	hidden := o.packets
	hidden.queued = uint64(hidden.inFlight()) + 1 // queued, yet already delivered or dropped
	if hidden.check() == nil {
		t.Error("a hidden packet passed the conservation check")
	}
	twice := o.packets
	twice.delivered += uint64(twice.inFlight()) + 1
	if twice.check() == nil {
		t.Error("a doubly delivered packet passed the conservation check")
	}

	if err := o.traps.check(); err != nil {
		t.Fatalf("clean trap ledger failed: %v", err)
	}
	for name, corrupt := range map[string]func(*trapLedger){
		"offered":   func(l *trapLedger) { l.offered++ },
		"forwarded": func(l *trapLedger) { l.leafForwarded++ },
	} {
		l := *o.traps
		corrupt(&l)
		if l.check() == nil {
			t.Errorf("an unledgered trap (%s) passed the trap ledger", name)
		}
	}
}

// TestTracedCountsCompareExactly runs the command twice in trace mode and
// diffs the two counts streams at tolerance 0, the way
// `results compare -tolerance 0` does.
func TestTracedCountsCompareExactly(t *testing.T) {
	dir := t.TempDir()
	var sums []*results.Summary
	for i, sub := range []string{"a", "b"} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "rtds_hifi", "--seed", "9", "--seconds", "0.1", "--trace", "1",
			"--out", filepath.Join(dir, sub)}, &out, &errb)
		if code != 0 {
			t.Fatalf("run %d exited %d: %s", i, code, errb.String())
		}
		rep := lastReport(t, out.String())
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("run %d: correct=%v failed=%d: %s", i, rep.Correct, rep.Failed, errb.String())
		}
		for _, d := range layerDefs {
			if _, ok := rep.Metrics[d.name]; !ok {
				t.Errorf("traced report lacks %s", d.name)
			}
		}
		f, err := os.Open(filepath.Join(dir, sub, "rtds_hifi-seed9.counts.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		set, err := results.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, results.Summarize(set))
	}
	c := results.CompareSummaries(sums[0], sums[1], 0, nil, "")
	if c.Compared == 0 || len(c.Divergences) > 0 || !c.RecordsIdentical {
		t.Fatalf("traced counts differ between runs: compared %d, divergences %v", c.Compared, c.Divergences)
	}
}

// TestUntracedReport checks the end-to-end report's shape: exactly the
// metrics BENCHMARK.json names, with its units.
func TestUntracedReport(t *testing.T) {
	spec := readSpec(t)
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "cots_storm", "--seed", "2", "--seconds", "0.1", "--trace", "0"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	rep := lastReport(t, out.String())
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Fatalf("report: %+v\n%s", rep, errb.String())
	}
	if len(rep.Metrics) != len(spec.EndToEnd) {
		t.Errorf("report has %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value == 0 {
			t.Errorf("%s: got %+v (present %v), want unit %s and a non-zero value", m.Name, got, ok, m.Unit)
		}
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

type specMetric struct {
	Name, Unit string
}

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func lastReport(t *testing.T, stdout string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v\n%s", err, stdout)
	}
	return rep
}

// TestReferenceAllocatesNothing keeps the reference out of the replica's
// allocation and GC figures.
func TestReferenceAllocatesNothing(t *testing.T) {
	refRun(refEvents / refChunks) // warm: the map is made on first use
	if n := testing.AllocsPerRun(5, func() { refRun(refEvents / refChunks) }); n != 0 {
		t.Fatalf("a reference slice allocates %v times", n)
	}
}
