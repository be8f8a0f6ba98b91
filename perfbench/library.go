package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"perm"
	"perm/internal/rewrite"
)

// libOp is one library call of a workload: a statement under a strategy.
type libOp struct {
	// cell names the operation type: query template and strategy ("plain"
	// for the query without PROVENANCE). Latency is kept per cell.
	cell     string
	query    string
	strategy perm.Strategy // "" for the plain query
}

func (op libOp) opts() []perm.Option {
	if op.strategy == "" {
		return nil
	}
	return []perm.Option{perm.WithStrategy(op.strategy)}
}

// group is the plain query and every provenance variant of one query
// instance. They run back to back, and check judges their results
// together: it returns one error per op (nil when that op's output is
// correct).
type group struct {
	// template names the query template, for the share of instances with
	// a non-empty result.
	template string
	ops      []libOp
	check    func(res []*perm.Result) []error
	// prepare, when set, computes the expected outputs check compares
	// against; it runs once, outside the set-up timing.
	prepare func() error
}

// libWorkload is a library workload's input: generated tables and the
// operation groups run over them.
type libWorkload struct {
	tables []table
	groups []group
	// notes are printed before the result: input make-up and the share of
	// non-empty instances per template.
	notes []string
}

// libSetup is the state a library workload's set-up leaves for the timed
// phase.
type libSetup struct {
	w       *libWorkload
	db      *perm.DB
	inserts []float64 // mean ms per loading INSERT, one per set-up repetition
	setupS  []float64
}

// setUpLibrary generates the inputs, loads them through DB.Exec, and runs
// one warm-up pass over every operation type, reps times; it reports each
// repetition's CPU time, without the heap collections load forces.
func setUpLibrary(build func() (*libWorkload, error), reps int) (*libSetup, error) {
	st := &libSetup{}
	for r := 0; r < reps; r++ {
		c0 := cpuTime()
		w, err := build()
		if err != nil {
			return nil, err
		}
		db := perm.Open()
		var ins time.Duration
		n := 0
		gcCPU, err := load(execOn(db.Exec), w.tables, func(d time.Duration) { ins += d; n++ })
		if err != nil {
			return nil, err
		}
		st.inserts = append(st.inserts, ms(ins)/float64(n))
		if err := warmUp(db, w); err != nil {
			return nil, err
		}
		st.setupS = append(st.setupS, (cpuTime() - c0 - gcCPU).Seconds())
		st.w, st.db = w, db
	}
	return st, nil
}

// warmUp runs the first op of every cell once and removes, from every
// group, the cells whose strategy cannot rewrite the query
// (rewrite.ErrNotApplicable, which depends only on the query's shape). Any
// other error fails set-up.
func warmUp(db *perm.DB, w *libWorkload) error {
	seen := map[string]bool{}
	na := map[string]bool{}
	for _, g := range w.groups {
		for _, op := range g.ops {
			if seen[op.cell] {
				continue
			}
			seen[op.cell] = true
			_, err := db.Query(op.query, op.opts()...)
			if errors.Is(err, rewrite.ErrNotApplicable) {
				na[op.cell] = true
			} else if err != nil {
				return fmt.Errorf("warm-up %s: %w", op.cell, err)
			}
		}
	}
	for i := range w.groups {
		var keep []libOp
		for _, op := range w.groups[i].ops {
			if !na[op.cell] {
				keep = append(keep, op)
			}
		}
		w.groups[i].ops = keep
	}
	return nil
}

// prepareChecks computes every group's expected outputs.
func prepareChecks(w *libWorkload) error {
	for _, g := range w.groups {
		if g.prepare != nil {
			if err := g.prepare(); err != nil {
				return fmt.Errorf("expected output of %s: %w", g.template, err)
			}
		}
	}
	return nil
}

// libRun is the timed phase's raw outcome.
type libRun struct {
	lat samples // thread CPU time per op, per cell
	// perOp is the thread CPU time of every op of the cycle, keyed by its
	// group and position there: one sample per cycle.
	perOp  map[[2]int][]float64
	tally  tally
	busy   time.Duration // process CPU time of the library calls
	wall   time.Duration // wall time of the library calls
	allocB uint64
	cycles int
	// nonEmpty counts, per template, the instances whose plain result has
	// rows, over the first cycle: [non-empty, instances].
	nonEmpty map[string]*[2]int
}

// runLibrary is the closed loop with one caller: it runs whole cycles over
// every group, in an order drawn from seed, until at least d has passed.
// Only the library calls are timed; each group's outputs are checked
// between calls.
func runLibrary(st *libSetup, seed int64, d time.Duration) *libRun {
	order := rand.New(rand.NewSource(seed)).Perm(len(st.w.groups))
	run := &libRun{lat: samples{}, perOp: map[[2]int][]float64{}, nonEmpty: map[string]*[2]int{}}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var gc collector
	start := time.Now()
	for time.Since(start) < d {
		for _, gi := range order {
			g := st.w.groups[gi]
			res := make([]*perm.Result, len(g.ops))
			errs := make([]error, len(g.ops))
			for i, op := range g.ops {
				gc.maybeCollect()
				a0 := heapAllocs()
				w0, c0, t0 := time.Now(), cpuTime(), threadCPUTime()
				res[i], errs[i] = st.db.Query(op.query, op.opts()...)
				el := threadCPUTime() - t0
				run.busy += cpuTime() - c0
				run.wall += time.Since(w0)
				run.allocB += heapAllocs() - a0
				run.lat.add(op.cell, ms(el))
				run.perOp[[2]int{gi, i}] = append(run.perOp[[2]int{gi, i}], ms(el))
			}
			if run.cycles == 0 && res[0] != nil {
				c := run.nonEmpty[g.template]
				if c == nil {
					c = new([2]int)
					run.nonEmpty[g.template] = c
				}
				c[1]++
				if len(res[0].Rows) > 0 {
					c[0]++
				}
			}
			var checks []error
			if firstErr(errs) == nil {
				checks = g.check(res)
			}
			for i := range g.ops {
				err := errs[i]
				if err == nil && checks != nil {
					err = checks[i]
				}
				if err != nil {
					logf("FAIL %s: %v", g.ops[i].cell, err)
				}
				run.tally.record(err)
			}
		}
		run.cycles++
	}
	return run
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// libMetrics turns a library run into the end-to-end metrics. Latencies
// are the ops' thread CPU times (see threadCPUTime); throughput_qps counts
// ops per second of the whole process's CPU time (see cpuTime), so work a
// change moves off the calling thread, or onto the background GC, still
// shows there. latency_p50_ms is the median, over the ops of a
// cycle (a fixed mix), of each op's median over the run's cycles: the
// mix spans three orders of magnitude, so near its middle one percent of
// the ops spans some ten percent of latency, and the median of the pooled
// samples moved with single samples' noise; latency_p99_ms is the
// slowest cell's median, since no run holds the thousand ops a p99 with
// ten samples beyond it needs. write_p50_ms is the median over the
// set-ups of the mean loading INSERT: single INSERTs into tables of
// different sizes form clusters, and their median jumps between them.
func libMetrics(st *libSetup, run *libRun) map[string]metric {
	cells := run.lat.cellMedians()
	ops := float64(run.tally.attempted)
	return map[string]metric{
		"setup_s":            {median(st.setupS), "s"},
		"throughput_qps":     {ops / run.busy.Seconds(), "1/s"},
		"latency_geomean_ms": {geomean(cells), "ms"},
		"latency_p50_ms":     {median(opMedians(run.perOp)), "ms"},
		"latency_p99_ms":     {maxOf(cells), "ms"},
		"write_p50_ms":       {median(st.inserts), "ms"},
		"alloc_mb_per_op":    {float64(run.allocB) / ops / 1e6, "MB"},
	}
}

func opMedians(perOp map[[2]int][]float64) []float64 {
	out := make([]float64, 0, len(perOp))
	for _, xs := range perOp {
		out = append(out, median(xs))
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
