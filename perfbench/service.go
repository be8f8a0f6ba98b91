package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"perm"
	"perm/internal/fuzz"
	"perm/internal/service"
)

// The service-mix workload: permd's handler (service.Server) over loopback
// HTTP from one process. Reads are fuzz-generated queries, plain and
// SELECT PROVENANCE, over the fuzz database's 4–6-row tables; writes are
// one-row INSERTs into a per-session table that grows to svcTableRows rows
// and is then dropped and recreated.
//
// The fuzz database and queries come from the fixed svcContentSeed: a few
// generated queries cost tens of times the rest, and which ones a draw
// holds would set the read tail of every run. The workload seed orders
// the requests and draws the inserted values.
const (
	svcContentSeed   = 1
	svcQueries       = 60   // generated queries; each is read plain and, where the rewrite allows, with PROVENANCE
	svcTableRows     = 2000 // rows a closed-loop session table reaches before it is dropped
	svcReadsPerWrite = 2    // reads a closed-loop connection sends after each INSERT
	svcOpenRate      = 400  // open-loop offered rate, requests per second
	svcOpenWriteEach = 5    // every fifth open-loop request is an INSERT
	svcOpenInFlight  = 64   // cap on open-loop requests in flight
)

// svcRead is one read request with the response the library gives for
// the same statement.
type svcRead struct {
	kind    string // read-plain or read-prov
	query   string
	columns []string
	rows    string // expected rows, JSON-encoded
}

type svcSetup struct {
	db     *perm.DB
	reads  []svcRead
	lb     *loopback
	setupS []float64
}

// svcQueryList draws the workload's queries from the fuzz generator.
func svcQueryList(seed int64) []*fuzz.Query {
	g := fuzz.NewGen(seed)
	qs := make([]*fuzz.Query, svcQueries)
	for i := range qs {
		qs[i] = g.Next()
	}
	return qs
}

func svcReads(qs []*fuzz.Query) []svcRead {
	var out []svcRead
	for _, q := range qs {
		out = append(out, svcRead{kind: "read-plain", query: q.SQL})
		if !q.UsesLimit && q.Scans <= fuzz.MaxProvScans {
			out = append(out, svcRead{kind: "read-prov", query: provenanceOf(q.SQL)})
		}
	}
	return out
}

// setUpService builds the database and the request list, runs
// fuzz.Check on every generated query (each under every executor mode and
// strategy: the warm-up pass over the engine), starts the server and warms
// it up with every read and one short write cycle; reps times. Outside the
// timed part it records each read's library result.
func setUpService(seed int64, reps int, tr *tracer) (*svcSetup, error) {
	st := &svcSetup{}
	for r := 0; r < reps; r++ {
		c0 := cpuTime()
		db := fuzz.NewDB(svcContentSeed)
		qs := svcQueryList(svcContentSeed)
		for i, q := range qs {
			if err := fuzz.Check(db, q); err != nil {
				return nil, fmt.Errorf("fuzz.Check on generated query %d (%s): %w", i, q.SQL, err)
			}
		}
		reads := svcReads(qs)
		rand.New(rand.NewSource(seed)).Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		lb, err := startLoopback(db, svcOpenInFlight, tr)
		if err != nil {
			return nil, err
		}
		if err := warmUpService(lb, reads); err != nil {
			lb.stop()
			return nil, err
		}
		st.setupS = append(st.setupS, (cpuTime() - c0).Seconds())
		if st.lb != nil {
			if err := st.lb.stop(); err != nil {
				lb.stop()
				return nil, err
			}
		}
		st.db, st.reads, st.lb = db, reads, lb
	}
	sess := st.db.NewSession()
	for i := range st.reads {
		res, err := sess.Query(st.reads[i].query)
		if err != nil {
			st.lb.stop()
			return nil, fmt.Errorf("library result of %s: %w", st.reads[i].query, err)
		}
		st.reads[i].columns = res.Columns
		if st.reads[i].rows, err = expectedJSON(res); err != nil {
			st.lb.stop()
			return nil, err
		}
	}
	return st, nil
}

func warmUpService(lb *loopback, reads []svcRead) error {
	for _, rd := range reads {
		if _, err := lb.post("/query", service.QueryRequest{Session: "warm", Query: rd.query}, -1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, stmt := range []string{"CREATE TABLE w (x int, y int)", "INSERT INTO w VALUES (1, 1)", "DROP TABLE w"} {
		if _, err := lb.post("/exec", service.ExecRequest{Session: "warm", Statement: stmt}, -1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// read sends one read and compares the response with the library's result.
func (st *svcSetup) read(session string, rd svcRead, op int) ([]byte, error) {
	body, err := st.lb.post("/query", service.QueryRequest{Session: session, Query: rd.query}, op)
	if err != nil {
		return nil, err
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if fmt.Sprint(resp.Columns) != fmt.Sprint(rd.columns) || string(resp.Rows) != rd.rows {
		return nil, fmt.Errorf("response to %q differs from the library result: got %s %s, want %s %s",
			rd.query, resp.Columns, resp.Rows, rd.columns, rd.rows)
	}
	return body, nil
}

func (st *svcSetup) exec(session, stmt string) error {
	_, err := st.lb.post("/exec", service.ExecRequest{Session: session, Statement: stmt}, -1)
	return err
}

// checkTable verifies that a session table holds exactly the rows the
// benchmark inserted: their count and the sum of x.
func (st *svcSetup) checkTable(session, table string, n, sumX int64) error {
	rd := svcRead{
		query:   fmt.Sprintf("SELECT count(*) AS n, sum(x) AS s FROM %s", table),
		columns: []string{"n", "s"},
		rows:    fmt.Sprintf("[[%d,%d]]", n, sumX),
	}
	_, err := st.read(session, rd, -1)
	return err
}

// insertValue is the x of the i-th row a connection inserts.
func insertValue(seed int64, conn, i int) int64 {
	return (seed*7919 + int64(conn)*104729 + int64(i)*31) % 1000
}

// svcRun is the outcome of the timed phases.
type svcRun struct {
	mu        sync.Mutex
	closedLat samples // CPU time per request, per operation type, closed loop
	openLat   samples // wall time per request from its due time, open loop
	tally     tally
	closedOps int
	closedCPU time.Duration // CPU time of the closed loop's requests
	allocB    uint64
	lateness  []float64 // ms the open-loop generator dispatched after each due time
}

func (run *svcRun) record(lat samples, kind string, d time.Duration, err error) {
	run.mu.Lock()
	defer run.mu.Unlock()
	lat.add(kind, ms(d))
	if err != nil {
		logf("FAIL %s: %v", kind, err)
	}
	run.tally.record(err)
}

// closedCycle is the closed loop's write cycle: create the session table,
// grow it to svcTableRows rows with one-row INSERTs, each followed by
// svcReadsPerWrite reads, check its count and sum, and drop it. Each
// request is timed by the CPU time the process spends on it — client,
// handler and engine — which, with one connection, is all the work the
// process does meanwhile.
func (st *svcSetup) closedCycle(run *svcRun, seed int64, next *int) {
	const session = "closed"
	var gc collector
	timed := func(kind string, f func() error) {
		gc.maybeCollect()
		a0 := heapAllocs()
		c0 := cpuTime()
		err := f()
		d := cpuTime() - c0
		run.allocB += heapAllocs() - a0
		run.closedCPU += d
		run.closedOps++
		run.record(run.closedLat, kind, d, err)
	}
	timed("ddl", func() error { return st.exec(session, "CREATE TABLE w (x int, y int)") })
	var sum int64
	for i := 0; i < svcTableRows; i++ {
		x := insertValue(seed, 0, i)
		sum += x
		timed("insert", func() error { return st.exec(session, fmt.Sprintf("INSERT INTO w VALUES (%d, %d)", x, i)) })
		for k := 0; k < svcReadsPerWrite; k++ {
			rd := st.reads[*next%len(st.reads)]
			*next++
			timed(rd.kind, func() error { _, err := st.read(session, rd, -1); return err })
		}
	}
	timed("check", func() error { return st.checkTable(session, "w", svcTableRows, sum) })
	timed("ddl", func() error { return st.exec(session, "DROP TABLE w") })
}

// runClosed runs whole write cycles over one connection until at least d
// has passed.
func (st *svcSetup) runClosed(run *svcRun, seed int64, d time.Duration) {
	next := 0
	for start := time.Now(); time.Since(start) < d; {
		st.closedCycle(run, seed, &next)
	}
}

// runOpen offers whole cycles over the read list, with an INSERT in place
// of every svcOpenWriteEach-th request, at svcOpenRate requests per second
// — just enough cycles for a read p99 with minTail reads beyond it — and
// times each request from its due time. The generator runs ahead of
// nothing: a request is sent at its due time whether or not earlier ones
// have completed.
func (st *svcSetup) runOpen(run *svcRun, seed int64) error {
	const session = "open"
	if err := st.exec(session, "CREATE TABLE v (x int, y int)"); err != nil {
		return err
	}
	perCycle := len(st.reads) * svcOpenWriteEach / (svcOpenWriteEach - 1)
	cycles := int(math.Ceil(float64(100*minTail+minTail) / float64(len(st.reads))))
	n := cycles * perCycle
	interval := time.Second / svcOpenRate
	sem := make(chan struct{}, svcOpenInFlight)
	var wg sync.WaitGroup
	var inserted, sum atomic.Int64
	readIdx := 0
	start := time.Now().Add(10 * time.Millisecond)
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * interval)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		run.lateness = append(run.lateness, ms(time.Since(due)))
		wg.Add(1)
		if j%svcOpenWriteEach == svcOpenWriteEach-1 {
			x := insertValue(seed, -1, j)
			go func() {
				defer wg.Done()
				err := st.exec(session, fmt.Sprintf("INSERT INTO v VALUES (%d, %d)", x, j))
				if err == nil {
					inserted.Add(1)
					sum.Add(x)
				}
				run.record(run.openLat, "insert", time.Since(due), err)
				<-sem
			}()
			continue
		}
		rd := st.reads[readIdx%len(st.reads)]
		readIdx++
		go func() {
			defer wg.Done()
			_, err := st.read(session, rd, -1)
			run.record(run.openLat, "read", time.Since(due), err)
			<-sem
		}()
	}
	wg.Wait()
	err := st.checkTable(session, "v", inserted.Load(), sum.Load())
	run.tally.record(err)
	if err != nil {
		logf("FAIL open-loop table check: %v", err)
	}
	return st.exec(session, "DROP TABLE v")
}

func serviceMix(seed int64, d time.Duration, trace bool) (*result, error) {
	if trace {
		return traceService(seed)
	}
	st, err := setUpService(seed, setupReps, nil)
	if err != nil {
		return nil, err
	}
	defer st.lb.stop()
	fmt.Printf("service-mix: seed %d, content seed %d; fuzz tables r, s, t, u; %d queries -> %d reads; the session table grows to %d rows; open loop at %d req/s\n",
		seed, svcContentSeed, svcQueries, len(st.reads), svcTableRows, svcOpenRate)
	run := &svcRun{closedLat: samples{}, openLat: samples{}}
	st.runClosed(run, seed, d)
	if err := st.runOpen(run, seed); err != nil {
		return nil, err
	}
	if err := st.lb.stop(); err != nil {
		return nil, err
	}
	reads := run.openLat["read"]
	p50, _ := percentile(reads, 50)
	p99, _ := percentile(reads, 99)
	late99, _ := percentile(run.lateness, 99)
	fmt.Printf("closed loop: %d requests, %.2f s CPU; peak RSS %.1f MB; open loop, wall clock from due time (not a metric: it moves with the steal of a shared machine): %d reads p50 %.3f ms p99 %.3f ms, %d inserts p50 %.3f ms; generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		run.closedOps, run.closedCPU.Seconds(), peakRSSMB(), len(reads), p50, p99, len(run.openLat["insert"]), median(run.openLat["insert"]),
		median(run.lateness), late99, maxOf(run.lateness))
	m, err := svcMetrics(st.setupS, run)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: run.tally.attempted, Failed: run.tally.failed, Metrics: m}, nil
}

// svcMetrics computes service-mix's end-to-end metrics from the closed
// loop, each from its own operation type's samples: the read percentiles
// from the reads, write_p50_ms from the INSERTs, the geometric mean from
// the per-type medians.
func svcMetrics(setupS []float64, run *svcRun) (map[string]metric, error) {
	reads := append(append([]float64(nil), run.closedLat["read-plain"]...), run.closedLat["read-prov"]...)
	p50, _ := percentile(reads, 50)
	p99, ok := percentile(reads, 99)
	if !ok {
		return nil, fmt.Errorf("%d reads cannot support a p99", len(reads))
	}
	// Latency per operation type over the kinds every cycle repeats many
	// times; the DDL and the table check run once per cycle.
	kinds := samples{}
	for _, k := range []string{"read-plain", "read-prov", "insert"} {
		kinds[k] = run.closedLat[k]
	}
	return map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"throughput_qps":     {float64(run.closedOps) / run.closedCPU.Seconds(), "1/s"},
		"latency_geomean_ms": {geomean(kinds.cellMedians()), "ms"},
		"latency_p50_ms":     {p50, "ms"},
		"latency_p99_ms":     {p99, "ms"},
		"write_p50_ms":       {median(run.closedLat["insert"]), "ms"},
		"alloc_mb_per_op":    {float64(run.allocB) / float64(run.closedOps) / 1e6, "MB"},
	}, nil
}
