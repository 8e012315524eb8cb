// Package sketch implements a fixed-size, allocation-bounded, deterministic
// per-series quantile summary — the incremental quantile estimator of
// Chambers, James, Lambert and Vander Wiel ("Monitoring Networked
// Applications With Incremental Quantile Estimation"), adapted to the
// repo's simulation discipline.
//
// A Sketch maintains a fixed grid of quantile markers (the estimated
// quantile value at each of Markers fixed probabilities, denser in the
// tails) plus a small buffer of pending observations. Observations
// accumulate in the buffer; when it fills, the buffer's exact empirical
// CDF is merged with the marker grid's piecewise-linear CDF, weighted by
// their sample counts, and the markers are re-read at the grid
// probabilities (the CJLV batch update). Until the first such fold the
// sketch is in exact mode: every observation is still in the buffer, and
// Quantile answers from a sorted copy with zero estimation error — the
// estimator degrades gracefully from exact as the series grows.
//
// Three rules shape the implementation:
//
//   - Deterministic. No wall clock, no randomness, and a fixed float
//     accumulation order everywhere: Update folds buffers in arrival
//     order, Merge folds the receiver's state before the argument's, and
//     the marker arrays are walked low-to-high. Two sketches fed the same
//     values in the same order are bit-identical, and a tree of Merges
//     evaluated in a fixed order is bit-identical across runs — the
//     property sharded federation relies on (experiment E15 merges the
//     per-path sketches of every region's director in globally sorted
//     path order, so the result is independent of the shard count).
//
//   - Allocation-bounded. The struct is self-contained fixed-size arrays;
//     Update is //perf:noalloc (verified by the escape-analysis gate) and
//     the fold works entirely in stack scratch. One Sketch is
//     O(Markers + BufCap) floats ≈ 2 KB, vs 64 B per retained sample
//     for ring-buffer history (a depth-1024 ring is ≈ 64 KB).
//
//   - Mergeable. Merge folds another sketch in: counts, sums, extremes
//     and threshold counters add exactly; marker grids combine as
//     count-weighted CDFs. Merge is commutative up to float rounding and
//     exactly deterministic for a fixed argument order, which is how
//     hierarchical directors federate per-shard summaries.
//
// Error bounds (asserted by the property tests, measured by experiment
// E15): in exact mode the error is zero; after folding, quantile error is
// bounded by the local grid spacing of the empirical CDF — for the p50,
// p95 and p99 markers (which lie exactly on the grid) the observed max
// relative value error stays under 2% across constant, uniform, bimodal,
// heavy-tailed and drifting inputs, because each fold re-anchors every
// marker to the batch CDF with weight proportional to the batch. For
// heavy-tailed inputs (infinite variance) the guarantee is in rank
// space instead: the empirical CDF at the sketch's answer stays within
// 1% of the requested p (value error at p99 is unbounded for any
// fixed-size summary when the quantile function's slope diverges).
// Pathological adversarial streams can exceed that (any fixed-size
// summary has such streams); the fuzz target bounds the divergence the
// estimator may accumulate versus a one-shot exact computation.
package sketch

import (
	"math"
	"sort"
	"unsafe"
)

// Markers is the size of the fixed quantile-marker grid.
const Markers = 117

// BufCap is the pending-observation buffer size: how many observations
// are folded into the markers per batch, and the largest count for which
// the sketch is still exact.
const BufCap = 128

// grid is the fixed, ascending probability grid the markers estimate,
// denser in the tails, with 0, 0.5, 0.95, 0.99 and 1 exactly on it.
var grid = buildGrid()

func buildGrid() [Markers]float64 {
	var g [Markers]float64
	n := 0
	add := func(p float64) { g[n] = p; n++ }
	// Lower tail: sub-percent resolution down to 1e-4.
	for _, p := range []float64{0, 1e-4, 2.5e-4, 5e-4, 7.5e-4,
		1e-3, 2.5e-3, 5e-3, 7.5e-3} {
		add(p)
	}
	// Body: every percentile from 1% to 99%.
	for i := 1; i <= 99; i++ {
		add(float64(i) / 100)
	}
	// Upper tail mirrors the lower one.
	for _, p := range []float64{0.9925, 0.995, 0.9975, 0.999,
		0.99925, 0.9995, 0.99975, 0.9999, 1} {
		add(p)
	}
	if n != Markers {
		panic("sketch: grid size mismatch")
	}
	return g
}

// Thresholds configures the stall counters: an observation at or above
// Stall counts as a stall; one at or above MicroStall (but below Stall)
// counts as a micro-stall. Zero values disable the respective counter.
// For a latency series these are the "user-visible freeze" and "jitter
// blip" levels of streaming-quality analysis.
type Thresholds struct {
	Stall      float64
	MicroStall float64
}

// Summary is a point-in-time digest of a sketch — the record a
// hierarchical director exports upward in place of raw history.
type Summary struct {
	Count       uint64
	Min, Max    float64
	Mean        float64
	P50         float64
	P95         float64
	P99         float64
	Stalls      uint64
	MicroStalls uint64
}

// Sketch is the incremental quantile summary. The zero value is ready to
// use. A Sketch must not be copied while it is still being updated
// (queries take value snapshots internally and are safe).
type Sketch struct {
	count     uint64 // accepted observations (buffered + folded)
	inMarkers uint64 // observations already folded into the marker grid
	dropped   uint64 // NaN/Inf observations rejected by Update

	min, max float64
	sum      float64

	thresholds  Thresholds
	stalls      uint64
	microStalls uint64

	q    [Markers]float64 // marker values; valid when inMarkers > 0
	buf  [BufCap]float64  // pending observations, arrival order
	nbuf int
}

// SetThresholds installs the stall/micro-stall levels. Counters apply to
// observations from this point on; set them before the first Update.
func (s *Sketch) SetThresholds(t Thresholds) { s.thresholds = t }

// Count returns how many observations the sketch has accepted.
func (s *Sketch) Count() uint64 { return s.count }

// Dropped returns how many non-finite observations were rejected.
func (s *Sketch) Dropped() uint64 { return s.dropped }

// Min returns the exact minimum observation; 0 when empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum observation; 0 when empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Mean returns the exact arithmetic mean; 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Stalls returns the threshold counters.
func (s *Sketch) Stalls() (stalls, microStalls uint64) {
	return s.stalls, s.microStalls
}

// Bytes reports the fixed memory footprint of one sketch.
func (s *Sketch) Bytes() int { return int(unsafe.Sizeof(*s)) }

// Exact reports whether every observation is still individually retained,
// so Quantile answers with zero estimation error.
func (s *Sketch) Exact() bool { return s.inMarkers == 0 }

// Update folds one observation into the sketch. Non-finite values (NaN,
// ±Inf) are counted in Dropped and otherwise ignored — they would poison
// the marker interpolation. Amortized cost is O(1); every BufCap-th call
// pays one O(Markers+BufCap) fold in stack scratch.
//
//perf:noalloc
func (s *Sketch) Update(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.dropped++
		return
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.sum += v
	s.count++
	if t := s.thresholds; t.Stall > 0 && v >= t.Stall {
		s.stalls++
	} else if t.MicroStall > 0 && v >= t.MicroStall {
		s.microStalls++
	}
	s.ingest(v)
}

// ingest appends to the pending buffer, folding when it fills. It touches
// none of the scalar statistics, so Merge can replay another sketch's
// buffer through it.
func (s *Sketch) ingest(v float64) {
	s.buf[s.nbuf] = v
	s.nbuf++
	if s.nbuf == BufCap {
		s.fold()
	}
}

// fold merges the pending buffer into the marker grid (the CJLV batch
// update). On the first fold the markers are initialized to the batch's
// exact quantiles; afterwards the batch's empirical CDF and the markers'
// piecewise-linear CDF combine weighted by their counts, and the markers
// are re-read at the grid probabilities. All scratch lives on the stack.
func (s *Sketch) fold() {
	m := s.nbuf
	if m == 0 {
		return
	}
	sortFloats(s.buf[:m])
	if s.inMarkers == 0 {
		for j := 0; j < Markers; j++ {
			s.q[j] = quantileSorted(s.buf[:m], grid[j])
		}
	} else {
		// The batch enters as the piecewise-linear CDF through its Hazen
		// plotting positions (buf[k], (k+0.5)/m), extended by vertical
		// jumps to exactly 0 at the batch minimum and exactly 1 at the
		// batch maximum. The extension matters: clamping the batch CDF to
		// its interior Hazen range ((m-0.5)/m at the top) would truncate
		// tail mass at every fold and the resulting bias compounds without
		// bound; with the exact-extreme extension the combined CDF always
		// accounts for all batch mass, and interior chords smooth the
		// order-statistic noise a raw step CDF would inject into the
		// markers.
		var bv, bp [BufCap + 2]float64
		bv[0], bp[0] = s.buf[0], 0
		for k := 0; k < m; k++ {
			bv[k+1], bp[k+1] = s.buf[k], (float64(k)+0.5)/float64(m)
		}
		bv[m+1], bp[m+1] = s.buf[m-1], 1
		wOld := float64(s.inMarkers) / float64(s.inMarkers+uint64(m))
		combine(&s.q, s.q[:], grid[:], wOld, bv[:m+2], bp[:m+2], 1-wOld)
	}
	// The extremes are tracked exactly; pin the end markers to them and
	// keep every marker inside [min, max].
	s.q[0] = s.min
	s.q[Markers-1] = s.max
	clampMonotone(&s.q, s.min, s.max)
	s.inMarkers += uint64(m)
	s.nbuf = 0
}

// combine inverts the count-weighted combination of two CDFs given as
// sorted knot lists, writing the result to dst. Component CDF i passes
// through (V[k], P[k]) and is piecewise linear between distinct knot
// values; repeated values with increasing P encode a vertical jump (an
// exact empirical step), which is how fold passes the batch in. dst may
// alias aV's backing array: all reads of aV happen before the first
// write to dst.
func combine(dst *[Markers]float64, aV, aP []float64, wA float64, bV, bP []float64, wB float64) {
	// Merge the two knot lists into one ascending value list. Each knot
	// keeps its own component's exact CDF value and evaluates only the
	// *other* component's CDF at its value — evaluating both sides would
	// flatten the left limits of vertical jumps. Scratch covers the worst
	// case of either a marker-batch fold (Markers + BufCap + 2 knots) or
	// a marker-marker merge (2*Markers knots; BufCap + 2 >= Markers).
	var kv, kc [Markers + BufCap + 2]float64
	n := 0
	i, j := 0, 0
	var wa, wb int
	for i < len(aV) || j < len(bV) {
		var v, c float64
		if j >= len(bV) || (i < len(aV) && aV[i] <= bV[j]) {
			v = aV[i]
			c = wA*aP[i] + wB*cdfAt(bV, bP, &wb, v)
			i++
		} else {
			v = bV[j]
			c = wA*cdfAt(aV, aP, &wa, v) + wB*bP[j]
			j++
		}
		kv[n], kc[n] = v, c
		n++
	}
	// Invert at each grid probability, walking knots once.
	k := 0
	for j := 0; j < Markers; j++ {
		t := grid[j]
		for k < n-1 && kc[k] < t {
			k++
		}
		switch {
		case k == 0 || kc[k] <= t && k == n-1:
			dst[j] = kv[k]
		case kc[k] == kc[k-1]:
			dst[j] = kv[k]
		default:
			// t lies in (kc[k-1], kc[k]]: interpolate.
			f := (t - kc[k-1]) / (kc[k] - kc[k-1])
			if f < 0 {
				f = 0
			} else if f > 1 {
				f = 1
			}
			dst[j] = kv[k-1] + f*(kv[k]-kv[k-1])
		}
	}
}

// cdfAt evaluates the piecewise-linear CDF through sorted knots
// (v[k], p[k]) at x, advancing the caller's cursor *w so a sequence of
// non-decreasing queries walks the knot list in a single forward pass.
// The slices are taken per call rather than held in a walker struct:
// storing them in struct fields defeats escape analysis and would force
// fold's stack scratch to the heap on every fold.
func cdfAt(v, p []float64, w *int, x float64) float64 {
	for *w < len(v)-1 && v[*w+1] <= x {
		*w++
	}
	switch {
	case x < v[0]:
		return 0
	case v[*w] == x || *w == len(v)-1:
		return p[*w]
	default:
		dv := v[*w+1] - v[*w]
		if dv <= 0 {
			return p[*w]
		}
		f := (x - v[*w]) / dv
		return p[*w] + f*(p[*w+1]-p[*w])
	}
}

// clampMonotone forces the marker array non-decreasing within [lo, hi] —
// float rounding in combine can produce locally decreasing neighbors.
func clampMonotone(q *[Markers]float64, lo, hi float64) {
	prev := lo
	for j := 0; j < Markers; j++ {
		if q[j] < prev {
			q[j] = prev
		}
		if q[j] > hi {
			q[j] = hi
		}
		prev = q[j]
	}
}

// Quantile returns the estimated p-quantile (p in [0, 1], clamped) of all
// observations. It does not mutate the sketch: pending buffered
// observations are folded into a stack snapshot, so the sketch's state
// evolution depends only on the Update/Merge sequence, never on when
// queries happen. Returns 0 on an empty sketch.
func (s *Sketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	if s.inMarkers == 0 {
		// Exact mode: every observation is still in the buffer.
		var tmp [BufCap]float64
		copy(tmp[:s.nbuf], s.buf[:s.nbuf])
		sortFloats(tmp[:s.nbuf])
		return quantileSorted(tmp[:s.nbuf], p)
	}
	if s.nbuf > 0 {
		t := *s
		t.fold()
		return t.markerQuantile(p)
	}
	return s.markerQuantile(p)
}

// markerQuantile interpolates the marker grid at p; inMarkers must be > 0
// and the pending buffer empty.
func (s *Sketch) markerQuantile(p float64) float64 {
	j := sort.SearchFloat64s(grid[:], p)
	if j < Markers && grid[j] == p {
		return s.q[j]
	}
	// p lies strictly between grid[j-1] and grid[j].
	if j == 0 {
		return s.q[0]
	}
	if j >= Markers {
		return s.q[Markers-1]
	}
	f := (p - grid[j-1]) / (grid[j] - grid[j-1])
	return s.q[j-1] + f*(s.q[j]-s.q[j-1])
}

// Summary digests the sketch. Like Quantile it is non-mutating.
func (s *Sketch) Summary() Summary {
	return Summary{
		Count:       s.count,
		Min:         s.Min(),
		Max:         s.Max(),
		Mean:        s.Mean(),
		P50:         s.Quantile(0.50),
		P95:         s.Quantile(0.95),
		P99:         s.Quantile(0.99),
		Stalls:      s.stalls,
		MicroStalls: s.microStalls,
	}
}

// Merge folds o into s; o is not modified. Count, sum, extremes and
// threshold counters combine exactly; quantile markers combine as
// count-weighted CDFs. The result is deterministic for a fixed (s, o)
// order — federation points must merge members in a fixed order (the
// sharded monitor uses globally sorted path order) so the outcome is
// independent of how series were partitioned across shards.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		if o != nil {
			s.dropped += o.dropped
		}
		return
	}
	if s.count == 0 {
		th := s.thresholds
		dropped := s.dropped
		*s = *o
		s.thresholds = th
		s.dropped += dropped
		return
	}
	// Scalar statistics combine exactly, receiver first (fixed order).
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.sum += o.sum
	s.stalls += o.stalls
	s.microStalls += o.microStalls
	s.dropped += o.dropped
	newCount := s.count + o.count

	switch {
	case s.inMarkers == 0 && o.inMarkers == 0 && s.nbuf+o.nbuf <= BufCap:
		// Both exact and the union fits: stay exact. A union that fills
		// the buffer exactly must fold now — ingest writes before it
		// checks capacity, so leaving nbuf at BufCap corrupts the next
		// update.
		copy(s.buf[s.nbuf:], o.buf[:o.nbuf])
		s.nbuf += o.nbuf
		if s.nbuf == BufCap {
			s.fold()
		}
	case o.inMarkers == 0:
		// o's observations are all still individually retained: replay
		// them in arrival order.
		for k := 0; k < o.nbuf; k++ {
			s.ingest(o.buf[k])
		}
	case s.inMarkers == 0:
		// s is small and o already estimates: adopt o's estimator state
		// and replay s's retained observations into it.
		t := *o
		for k := 0; k < s.nbuf; k++ {
			t.ingest(s.buf[k])
		}
		s.q = t.q
		s.buf = t.buf
		s.nbuf = t.nbuf
		s.inMarkers = t.inMarkers
	default:
		// Both estimate: flush pending buffers, then combine the two
		// marker grids as count-weighted CDFs.
		s.fold()
		t := *o
		t.fold()
		wS := float64(s.inMarkers) / float64(s.inMarkers+t.inMarkers)
		combine(&s.q, s.q[:], grid[:], wS, t.q[:], grid[:], 1-wS)
		s.q[0] = s.min
		s.q[Markers-1] = s.max
		clampMonotone(&s.q, s.min, s.max)
		s.inMarkers += t.inMarkers
	}
	s.count = newCount
}

// Exact computes the reference quantile the sketch estimates: the
// piecewise-linear empirical quantile function through Hazen plotting
// positions F(x_(k)) = (k+0.5)/n, clamped to [min, max]. It sorts a copy
// of xs. This is the ground truth for the property tests and experiment
// E15. Returns 0 for empty input.
func Exact(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// quantileSorted evaluates the Hazen piecewise-linear empirical quantile
// of a sorted, non-empty sample at p in [0, 1].
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	// Invert F(x_(k)) = (k+0.5)/n: the target rank is r = p*n - 0.5.
	r := p*float64(n) - 0.5
	if r <= 0 {
		return sorted[0]
	}
	if r >= float64(n-1) {
		return sorted[n-1]
	}
	k := int(r)
	f := r - float64(k)
	return sorted[k] + f*(sorted[k+1]-sorted[k])
}

// sortFloats sorts in place without allocating: an insertion sort, which
// on BufCap-sized slices beats the generic machinery and keeps Update's
// //perf:noalloc contract trivially (sort.Float64s is also
// allocation-free in the current toolchain, but that is an implementation
// detail of the stdlib this hot path should not depend on).
func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
