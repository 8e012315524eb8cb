package experiments

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

// e15ParsePct turns a "1.23%" cell back into a fraction.
func e15ParsePct(t *testing.T, s string) float64 {
	if !strings.HasSuffix(s, "%") {
		t.Fatalf("cell %q is not a percentage", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v / 100
}

// e15ParseInt parses an integer cell.
func e15ParseInt(t *testing.T, s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestE15Accuracy asserts the issue's acceptance bar on the quick table:
// the fixed-size sketch stays within 2% of exact full-history quantiles in
// every scenario while costing at least 10x less memory than the
// depth-1024 ring needed for comparable fidelity.
func TestE15Accuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	tab := E15(true)
	t.Logf("\n%s", tab.String())
	scenarios := map[string]bool{}
	for _, row := range tab.Rows {
		scenario, estimator := row[0], row[1]
		if scenario == "federated" {
			if e := e15ParsePct(t, row[7]); e > 0.02 {
				t.Errorf("federated %s: p99 err %.4f > 2%%", estimator, e)
			}
			continue
		}
		if estimator != "sketch" {
			continue
		}
		scenarios[scenario] = true
		for col := 5; col <= 7; col++ {
			if e := e15ParsePct(t, row[col]); e > 0.02 {
				t.Errorf("%s sketch err col %d = %.4f > 2%%", scenario, col, e)
			}
		}
		sketchBytes := e15ParseInt(t, row[4])
		if hist1024 := 1024 * 64; sketchBytes*10 > hist1024 {
			t.Errorf("%s: sketch %d B not >=10x smaller than depth-1024 ring (%d B)", scenario, sketchBytes, hist1024)
		}
		if samples := e15ParseInt(t, row[3]); samples <= 128 {
			t.Errorf("%s: mean %d samples/series <= BufCap; estimator never engaged", scenario, samples)
		}
	}
	for _, want := range []string{"hifi", "cots", "hybrid", "chaos"} {
		if !scenarios[want] {
			t.Errorf("no sketch row for scenario %q", want)
		}
	}
}

// TestE15ShardInvariant proves the federated roll-up is identical at 1, 2,
// 4 and 8 shards: every cell except the estimator label (which names the
// shard count) must match bit for bit.
func TestE15ShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	strip := func(row []any) []any {
		out := append([]any(nil), row...)
		out[1] = "" // the merge@Nsh label is the only cell allowed to vary
		return out
	}
	ref := strip(e15FedRow(true, 1))
	for _, sc := range []int{2, 4, 8} {
		got := strip(e15FedRow(true, sc))
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("shards=%d: cell %d = %v, want %v", sc, i, got[i], ref[i])
			}
		}
	}
}

// TestE15MergeShardInvariant: the federated roll-up is bit-identical no
// matter how paths are partitioned across owners or in which order they
// are listed — e15MergeSorted fixes the merge order by sorted path ID, not
// by owner or input order. TestE15ShardInvariant cannot see this on its
// own: its region count, and so its owner set, is the same in every row.
func TestE15MergeShardInvariant(t *testing.T) {
	ids := []core.PathID{"pD", "pA", "pC", "pB"}
	values := map[core.PathID][]float64{}
	rng := rand.New(rand.NewSource(23))
	for _, id := range ids {
		for i := 0; i < 150; i++ { // past BufCap, so merges are lossy and order-sensitive
			values[id] = append(values[id], 5+rng.Float64()*100)
		}
	}
	// build deals the paths round-robin over n owner databases, feeds each
	// path's values to its owner, and merges the paths listed in order.
	build := func(n int, order []int) sketch.Sketch {
		owner := map[core.PathID]*core.Database{}
		for i, id := range ids {
			if i < n {
				db := core.NewDatabase()
				db.EnableSketches(sketch.Thresholds{})
				owner[id] = db
			} else {
				owner[id] = owner[ids[i%n]]
			}
		}
		for _, id := range ids {
			for _, v := range values[id] {
				owner[id].Record(core.Measurement{Path: id, Metric: metrics.OneWayLatency, Value: v})
			}
		}
		var paths []core.Path
		for _, i := range order {
			paths = append(paths, core.Path{ID: ids[i]})
		}
		dbOf := func(p core.Path) *core.Database { return owner[p.ID] }
		agg, ok := e15MergeSorted(paths, metrics.OneWayLatency, dbOf)
		if !ok {
			t.Fatal("e15MergeSorted found no sketches")
		}
		return agg
	}
	ref := build(1, []int{0, 1, 2, 3})
	for n := 1; n <= 4; n++ {
		for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2, 1}} {
			if got := build(n, order); got != ref {
				t.Errorf("%d owners, order %v: merged sketch differs from 1 owner", n, order)
			}
		}
	}
	// The digest covers every observation once, duplicates included.
	var pooled []float64
	for _, vs := range values {
		pooled = append(pooled, vs...)
	}
	if ref.Count() != uint64(len(pooled)) {
		t.Errorf("merged count = %d, want %d", ref.Count(), len(pooled))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := sketch.Exact(pooled, q)
		if e := math.Abs(ref.Quantile(q)-exact) / exact; e > 0.04 {
			t.Errorf("merged Quantile(%v): rel err %.4f > 4%%", q, e)
		}
	}
}
