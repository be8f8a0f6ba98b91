package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"perm"
	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/opt"
	"perm/internal/plancheck"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/sql"
)

// The traced run. It calls each layer's public function from the
// benchmark's own code — sql.CompileEnv, rewrite.Rewrite, opt.Optimize,
// plancheck.Verify, Evaluator.Eval, result ordering — with a span around
// each call, in the order perm.DB.Query calls them with its defaults, and
// checks that the rows equal what DB.Query returns. Spans stay in memory
// and are written to spanDir when the run ends.

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (the build directory its script uses).
const spanDir = ".bench_build/perfbench"

// span is one timed layer call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans; it is safe for concurrent use, since the HTTP
// handler records from the server's goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// startOf returns a span's start.
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, op, parent int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the part their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// compileShare sums, over the ops that went through Server.ServeHTTP, the
// ServeHTTP spans and the compile, rewrite and optimize spans of the same
// statements.
func (t *tracer) compileShare() (serve, compile time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	served := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == "service.serve" {
			served[s.Op] = true
			serve += time.Duration(s.End - s.Start)
		}
	}
	for _, s := range t.spans {
		switch s.Name {
		case "sql.compile", "rewrite", "opt":
			if served[s.Op] {
				compile += time.Duration(s.End - s.Start)
			}
		}
	}
	return serve, compile
}

// write stores the spans as JSON under spanDir.
func (t *tracer) write(workload string) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spanDir, "spans-"+workload+".json"), b, 0o644)
}

// layerCounts are the per-op counts the traced pipeline takes at the
// layer boundaries.
type layerCounts struct {
	queries    int
	crossOps   int
	peakRows   int64
	evalAllocB uint64
	rows       int
	// plancheckCPU is the CPU time of the plancheck reference calls, which
	// the default path does not make.
	plancheckCPU time.Duration
}

// tracedQuery runs one statement through the engine's pipeline, a span
// around each layer, and returns the presented rows.
func tracedQuery(tr *tracer, c *layerCounts, op int, src catalog.Source, query string, strategy perm.Strategy) ([][]any, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	c.queries++

	s := tr.begin("sql.compile", op, root)
	trd, err := sql.CompileEnv(sql.Env{Catalog: src}, query)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	stages := []plancheck.StagePlan{{Stage: plancheck.StageTranslate, Plan: trd.Plan, Hidden: trd.Hidden}}
	plan := trd.Plan
	var rw *rewrite.Result
	if trd.Provenance {
		if strategy == "" {
			strategy = perm.Auto
		}
		strat, err := rewrite.ParseStrategy(string(strategy))
		if err != nil {
			return nil, err
		}
		s = tr.begin("rewrite", op, root)
		rw, err = rewrite.Rewrite(plan, strat)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		plan = rw.Plan
		stages = append(stages, plancheck.StagePlan{Stage: plancheck.RewriteStage(string(strategy)), Plan: plan,
			Rewritten: true, Original: rw.Original, Prov: rw.Prov, Hidden: trd.Hidden})
	}
	s = tr.begin("opt", op, root)
	plan = opt.Optimize(plan)
	tr.end(s)
	algebra.Walk(plan, func(o algebra.Op) bool {
		if _, ok := o.(*algebra.Cross); ok {
			c.crossOps++
		}
		return true
	})
	final := plancheck.StagePlan{Stage: plancheck.StageOptimize, Plan: plan, Hidden: trd.Hidden}
	if rw != nil {
		final.Rewritten, final.Original, final.Prov = true, rw.Original, rw.Prov
	}
	stages = append(stages, final)

	// The default path runs with plancheck off; it is timed here as a
	// reference cost only.
	s = tr.begin("plancheck", op, root)
	pc0 := cpuTime()
	for _, sp := range stages {
		plancheck.Verify(sp)
	}
	c.plancheckCPU += cpuTime() - pc0
	tr.end(s)

	s = tr.begin("eval", op, root)
	a0 := heapAllocs()
	ev := eval.New(src)
	out, err := ev.Eval(plan)
	c.evalAllocB += heapAllocs() - a0
	tr.end(s)
	if err != nil {
		return nil, err
	}
	c.peakRows += ev.LastStats().PeakRows

	s = tr.begin("perm.present", op, root)
	rows, err := present(plan, out, trd, rw)
	tr.end(s)
	c.rows += len(rows)
	return rows, err
}

// present orders the evaluated bag and converts it to result rows the way
// perm.DB.Query does: the query's ORDER BY (or the canonical order), with
// hidden sort-key columns dropped.
func present(plan algebra.Op, out *rel.Relation, trd *sql.Translated, rw *rewrite.Result) ([][]any, error) {
	data := out.Schema.Len() - trd.Hidden
	if rw != nil {
		data = rw.Original.Len() - trd.Hidden
	}
	var tuples []rel.Tuple
	if keys := algebra.LiftOrderKeys(plan); keys != nil {
		var err error
		if tuples, err = eval.SortTuples(out, keys); err != nil {
			return nil, err
		}
	} else {
		tuples = out.SortedTuples()
	}
	rows := make([][]any, 0, len(tuples))
	for _, t := range tuples {
		row := make([]any, 0, len(t)-trd.Hidden)
		for i, v := range t {
			if i >= data && i < data+trd.Hidden {
				continue
			}
			row = append(row, goValue(v))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sameRows reports whether two row lists are equal, in order.
func sameRows(a, b [][]any) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, engine returned %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d has %d columns, engine's %d", i, len(a[i]), len(b[i]))
		}
		if ka, kb := rowKey(a[i], 0, len(a[i])), rowKey(b[i], 0, len(b[i])); ka != kb {
			return fmt.Errorf("row %d is %s, engine's %s", i, ka, kb)
		}
	}
	return nil
}

// layerReport turns a traced run's spans and counts into the per-layer
// metrics. Query-layer times and counts are per query op, catalog.write_us
// per INSERT, the service metrics per HTTP request. Spans are on the wall
// clock (the service's elapsed_ms is); the tracing overhead compares CPU
// times, each op run untraced and traced back to back.
type layerReport struct {
	tr          *tracer
	c           layerCounts
	inserts     int
	writeExec   time.Duration // Session/DB.Exec of INSERTs
	writeParse  time.Duration // sql.ParseStatement of the same statements
	requests    int
	respBytes   int
	readServe   time.Duration // ServeHTTP spans of query requests
	readCompile time.Duration // compile+rewrite+opt of the same statements
	untraced    time.Duration // CPU time of the query ops through DB.Query
	traced      time.Duration // CPU time of the same ops through the traced pipeline, without plancheck
}

func (r *layerReport) metrics() map[string]metric {
	self := r.tr.selfTimes()
	perQuery := func(name string) float64 { return us(self[name]) / float64(max(r.c.queries, 1)) }
	perReq := func(name string) float64 { return us(self[name]) / float64(max(r.requests, 1)) }
	share := 0.0
	if r.readServe > 0 {
		share = 100 * float64(r.readCompile) / float64(r.readServe)
	}
	overhead := 0.0
	if r.untraced > 0 {
		overhead = 100 * (float64(r.traced)/float64(r.untraced) - 1)
	}
	q := float64(max(r.c.queries, 1))
	return map[string]metric{
		"sql.compile_us":            {perQuery("sql.compile"), "us"},
		"rewrite.us":                {perQuery("rewrite"), "us"},
		"opt.us":                    {perQuery("opt"), "us"},
		"opt.cross_ops":             {float64(r.c.crossOps) / q, "count"},
		"plancheck.us":              {perQuery("plancheck"), "us"},
		"eval.us":                   {perQuery("eval"), "us"},
		"eval.peak_rows":            {float64(r.c.peakRows) / q, "rows"},
		"eval.alloc_kb":             {float64(r.c.evalAllocB) / q / 1e3, "KB"},
		"perm.present_us":           {perQuery("perm.present"), "us"},
		"perm.present_rows":         {float64(r.c.rows) / q, "rows"},
		"catalog.write_us":          {us(r.writeExec-r.writeParse) / float64(max(r.inserts, 1)), "us"},
		"service.serve_us":          {(us(self["service.serve"]) + us(self["service.engine"])) / float64(max(r.requests, 1)), "us"},
		"service.self_us":           {perReq("service.serve"), "us"},
		"service.transport_us":      {perReq("service.client"), "us"},
		"service.resp_kb":           {float64(r.respBytes) / float64(max(r.requests, 1)) / 1e3, "KB"},
		"service.compile_share_pct": {share, "%"},
		"trace.overhead_pct":        {overhead, "%"},
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pairedQuery runs one statement untraced through run and then through the
// traced pipeline, each from a collected heap, adding their CPU times to
// the report; it returns both results.
func (r *layerReport) pairedQuery(op int, src catalog.Source, query string, strategy perm.Strategy,
	run func() (*perm.Result, error)) (*perm.Result, [][]any, error) {
	runtime.GC()
	c0 := cpuTime()
	want, err := run()
	r.untraced += cpuTime() - c0
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	pc := r.c.plancheckCPU
	c0 = cpuTime()
	rows, err := tracedQuery(r.tr, &r.c, op, src, query, strategy)
	r.traced += cpuTime() - c0 - (r.c.plancheckCPU - pc)
	return want, rows, err
}
