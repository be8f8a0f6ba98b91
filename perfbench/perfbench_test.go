package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"perm"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileNearestRankAndTailRule(t *testing.T) {
	// 1000 samples 1..1000: the nearest-rank p99 is the 990th value, with
	// exactly ten samples beyond it, so the sample supports it.
	got, ok := percentile(seq(1000), 99)
	if got != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (supported %v), want 990 (supported)", got, ok)
	}
	// One sample fewer leaves nine beyond the rank: not a tail.
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if got, ok := percentile(seq(100), 50); got != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (%v), want 50", got, ok)
	}
	// Input order must not matter.
	if got, _ := percentile([]float64{5, 1, 4, 2, 3}, 40); got != 2 {
		t.Errorf("p40 of shuffled 1..5 = %v, want 2", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 2, 2}); !near(got, 2) {
		t.Errorf("geomean(2, 2, 2) = %v, want 2", got)
	}
	if got := geomean([]float64{1, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{8, 1, 4, 2})
	if !near(q1, 1.25) || !near(q3, 7) {
		t.Errorf("quartiles(1,2,4,8) = %v, %v, want 1.25, 7", q1, q3)
	}
	if got := spread(seq(10)); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %v", got)
	}
}

func TestTallyCountsAttemptedAndFailed(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(errors.New("wrong output"))
	tl.record(nil)
	if tl.attempted != 3 || tl.failed != 1 {
		t.Errorf("tally = %+v, want 3 attempted, 1 failed", tl)
	}
}

func TestSamplesKeepOperationTypesApart(t *testing.T) {
	s := samples{}
	for i := 0; i < 9; i++ {
		s.add("fast", 1)
	}
	s.add("slow", 100)
	meds := s.cellMedians()
	if len(meds) != 2 || meds[0] != 1 || meds[1] != 100 {
		t.Fatalf("cell medians = %v, want [1 100]", meds)
	}
	// Pooled, the slow type would vanish under the median.
	if got := geomean(meds); !near(got, 10) {
		t.Errorf("geomean of cell medians = %v, want 10", got)
	}
}

// TestLibraryP50IsTheMedianOpsMedian runs three ops over three cycles,
// one sample per cycle each, with one noisy sample per op: the p50 is the
// middle op's median, untouched by the noise, where the pooled median of
// the nine samples is a noisy sample.
func TestLibraryP50IsTheMedianOpsMedian(t *testing.T) {
	perOp := map[[2]int][]float64{
		{0, 0}: {1, 1, 9},
		{0, 1}: {2, 2, 9},
		{1, 0}: {3, 9, 3},
	}
	if got := median(opMedians(perOp)); got != 2 {
		t.Errorf("p50 of op medians = %v, want 2", got)
	}
	var pooled []float64
	for _, xs := range perOp {
		pooled = append(pooled, xs...)
	}
	if got := median(pooled); got == 2 {
		t.Fatalf("pooled median = %v; the case no longer tells the two apart", got)
	}
}

// TestServiceMetricsUseTheirOwnSamples feeds reads and writes with
// different latencies: write_p50_ms must come from the INSERTs alone and
// the read percentiles from the reads alone. Computing both from one
// sample set makes write_p50_ms equal a read percentile, and this test
// fail.
func TestServiceMetricsUseTheirOwnSamples(t *testing.T) {
	run := &svcRun{closedLat: samples{}, openLat: samples{}, closedOps: 10, closedCPU: time.Second, allocB: 10e6}
	for i := 1; i <= 1000; i++ {
		run.closedLat.add("read-plain", float64(i)/1000)  // 0.001 .. 1 ms
		run.closedLat.add("read-prov", 1+float64(i)/1000) // 1.001 .. 2 ms
	}
	for i := 0; i < 400; i++ {
		run.closedLat.add("insert", 7)
	}
	m, err := svcMetrics([]float64{0.5, 0.4, 0.6}, run)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["write_p50_ms"].Value; got != 7 {
		t.Errorf("write_p50_ms = %v, want 7 (the INSERTs' median)", got)
	}
	if got := m["latency_p50_ms"].Value; got != 1 {
		t.Errorf("latency_p50_ms = %v, want 1 (the reads' nearest-rank median)", got)
	}
	if got := m["latency_p99_ms"].Value; got != 1.98 {
		t.Errorf("latency_p99_ms = %v, want 1.98", got)
	}
	if m["write_p50_ms"].Value == m["latency_p99_ms"].Value {
		t.Error("write_p50_ms equals latency_p99_ms: both fed from one sample set")
	}
	// Per-type medians 0.5005, 1.5005 and 7.
	if got, want := m["latency_geomean_ms"].Value, math.Cbrt(0.5005*1.5005*7); !near(got, want) {
		t.Errorf("latency_geomean_ms = %v, want %v", got, want)
	}
	if got := m["throughput_qps"].Value; !near(got, 10) {
		t.Errorf("throughput_qps = %v, want 10", got)
	}
	if got := m["setup_s"].Value; !near(got, 0.5) {
		t.Errorf("setup_s = %v, want 0.5", got)
	}
	// Too few reads for a p99 is an error, not a misleading number.
	run.closedLat["read-plain"] = run.closedLat["read-plain"][:300]
	run.closedLat["read-prov"] = run.closedLat["read-prov"][:300]
	if _, err := svcMetrics(nil, run); err == nil {
		t.Error("p99 over 600 reads accepted")
	}
}

// runGroup loads a workload's tables and runs one group's ops.
func runGroup(t *testing.T, w *libWorkload, g group) []*perm.Result {
	t.Helper()
	db := perm.Open()
	if _, err := load(execOn(db.Exec), w.tables, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	var res []*perm.Result
	for _, op := range g.ops {
		r, err := db.Query(op.query, op.opts()...)
		if err != nil {
			continue // an inapplicable strategy
		}
		res = append(res, r)
	}
	return res
}

func allNil(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func cloneResult(r *perm.Result) *perm.Result {
	c := *r
	c.Rows = make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		c.Rows[i] = append([]any(nil), row...)
	}
	return &c
}

func TestSynthChecksCatchCorruptedProvenance(t *testing.T) {
	w, err := buildSynth(3)()
	if err != nil {
		t.Fatal(err)
	}
	var g group
	for _, cand := range w.groups {
		if cand.template == "q1-both" {
			g = cand
			break
		}
	}
	if err := g.prepare(); err != nil {
		t.Fatal(err)
	}
	res := runGroup(t, w, g)
	if len(res) < 3 {
		t.Fatalf("only %d results", len(res))
	}
	if err := allNil(g.check(res)); err != nil {
		t.Fatalf("correct outputs rejected: %v", err)
	}
	prov := res[1]
	if len(prov.Rows) < 2 {
		t.Fatalf("provenance result too small to corrupt: %d rows", len(prov.Rows))
	}

	dropped := cloneResult(prov)
	dropped.Rows = dropped.Rows[1:]
	// Dropping a row can leave the distinct set intact only if it was a
	// duplicate; remove every copy of it.
	first := rowKey(prov.Rows[0], 0, len(prov.Rows[0]))
	var kept [][]any
	for _, r := range prov.Rows {
		if rowKey(r, 0, len(r)) != first {
			kept = append(kept, r)
		}
	}
	dropped.Rows = kept
	altered := cloneResult(prov)
	for _, r := range altered.Rows {
		if v, ok := r[len(r)-1].(int64); ok {
			r[len(r)-1] = v + 1000
			break
		}
	}
	plainAltered := cloneResult(res[0])
	plainAltered.Rows = plainAltered.Rows[1:]

	for name, bad := range map[string][]*perm.Result{
		"dropped provenance row": {res[0], dropped},
		"altered provenance row": {res[0], altered},
		"dropped plain row":      {plainAltered, prov},
	} {
		if err := allNil(g.check(bad)); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestTPCHChecksCatchCorruptedProvenance(t *testing.T) {
	w, err := buildTPCH()
	if err != nil {
		t.Fatal(err)
	}
	var g group
	for _, cand := range w.groups {
		if cand.template == "Q17" {
			g = cand
			break
		}
	}
	if g.ops == nil {
		t.Fatal("Q17 group not found")
	}
	res := runGroup(t, w, g)
	if len(res) < 3 || len(res[0].Rows) == 0 {
		t.Fatalf("Q17 gave %d results, %d plain rows", len(res), len(res[0].Rows))
	}
	keys := parseOrderBy(g.ops[0].query)
	base := baseRowSets(w.tables)
	if err := allNil(checkTPCHGroup(res, keys, base)); err != nil {
		t.Fatalf("correct outputs rejected: %v", err)
	}

	// A provenance group that is no row of its base relation.
	notBase := cloneResult(res[1])
	notBase.Rows[0][len(notBase.Rows[0])-1] = "no such value"
	// One strategy losing every provenance row but the first.
	lost := cloneResult(res[2])
	lost.Rows = lost.Rows[:1]
	lostOthers := len(rowSet(res[2].Rows, 0, len(res[2].Columns))) > 1
	// Provenance whose data columns no longer match the plain result.
	wrongData := cloneResult(res[1])
	for _, r := range wrongData.Rows {
		r[0] = int64(-12345)
	}
	cases := map[string][]*perm.Result{
		"non-base provenance group":         {res[0], notBase, res[2]},
		"data columns off the plain result": {res[0], wrongData, res[2]},
	}
	if lostOthers {
		cases["strategy lost provenance rows"] = []*perm.Result{res[0], res[1], lost}
	}
	for name, bad := range cases {
		if err := allNil(checkTPCHGroup(bad, keys, base)); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestOrderCheck(t *testing.T) {
	res := &perm.Result{Columns: []string{"a", "b"}, DataColumns: 2, Rows: [][]any{{int64(3), "x"}, {int64(1), "y"}, {int64(1), "z"}}}
	keys := parseOrderBy("SELECT a, b FROM t ORDER BY a DESC, b")
	if len(keys) != 2 || !keys[0].desc || keys[1].desc {
		t.Fatalf("parsed keys %+v", keys)
	}
	if err := checkOrder(res, keys); err != nil {
		t.Errorf("sorted rows rejected: %v", err)
	}
	res.Rows[1], res.Rows[2] = res.Rows[2], res.Rows[1]
	if err := checkOrder(res, keys); err == nil {
		t.Error("b out of order within a = 1: not caught")
	}
}

func TestLiteralsRoundTrip(t *testing.T) {
	db := perm.Open()
	tb := table{name: "t", cols: []string{"i", "f", "s"}}
	tb.rows = [][]any{{int64(-3), 2.0, "it's"}, {nil, 0.25, ""}}
	if _, err := db.Exec("CREATE TABLE t (i int, f float, s text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(insertSQL("t", tb.rows)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT i, f, s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if diffSets("round trip", rowSet(res.Rows, 0, 3), rowSet(tb.rows, 0, 3)) != nil {
		t.Errorf("loaded %v, want %v", res.Rows, tb.rows)
	}
}
