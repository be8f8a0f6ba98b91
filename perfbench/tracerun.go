package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"runtime"

	"perm"
	"perm/internal/service"
	"perm/internal/sql"
)

// traceLibrary is a library workload's traced run: a traced load, then
// one cycle over every op, each through DB.Query (the reference rows and
// the untraced time) and right after through the traced pipeline, then
// every op once more through the service over loopback HTTP.
func traceLibrary(name string, w *libWorkload) (*result, error) {
	tr := newTracer()
	rep := &layerReport{tr: tr}
	db := perm.Open()
	exec := func(stmt string) error {
		if !strings.HasPrefix(stmt, "INSERT") {
			_, err := db.Exec(stmt)
			return err
		}
		p0 := time.Now()
		_, perr := sql.ParseStatement(stmt)
		rep.writeParse += time.Since(p0)
		e0 := time.Now()
		_, err := db.Exec(stmt)
		rep.writeExec += time.Since(e0)
		rep.inserts++
		if perr != nil {
			return perr
		}
		return err
	}
	if _, err := load(exec, w.tables, func(time.Duration) {}); err != nil {
		return nil, err
	}

	var ops []libOp
	for _, g := range w.groups {
		ops = append(ops, g.ops...)
	}
	var t tally
	correct := true
	want := make([]*perm.Result, len(ops))
	for i, op := range ops {
		res, rows, err := rep.pairedQuery(i, db.Catalog(), op.query, op.strategy,
			func() (*perm.Result, error) { return db.Query(op.query, op.opts()...) })
		if res == nil {
			return nil, fmt.Errorf("%s: %w", op.cell, err)
		}
		want[i] = res
		if err == nil {
			err = sameRows(rows, res.Rows)
		}
		if err != nil {
			correct = false
			logf("FAIL traced %s: %v", op.cell, err)
		}
		t.record(err)
	}

	lb, err := startLoopback(db, 1, tr)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		runtime.GC() // as before the traced pipeline, so the two compare
		body, err := lb.post("/query", service.QueryRequest{Query: op.query, Strategy: string(op.strategy)}, i)
		if err == nil {
			err = sameJSONRows(body, want[i])
		}
		if err != nil {
			logf("FAIL http %s: %v", op.cell, err)
		}
		rep.requests++
		rep.respBytes += len(body)
		t.record(err)
	}
	if err := lb.stop(); err != nil {
		return nil, err
	}
	rep.readServe, rep.readCompile = tr.compileShare()
	return finishTrace(name, tr, rep, t, correct)
}

// traceService is service-mix's traced run: one closed-loop write cycle
// from one connection. Every read goes over HTTP, traced at the client and
// around Server.ServeHTTP, and through the traced pipeline over the base
// catalog; every INSERT goes over HTTP and, timed, into a library session
// that mirrors the server's.
func traceService(seed int64) (*result, error) {
	tr := newTracer()
	rep := &layerReport{tr: tr}
	st, err := setUpService(seed, 1, tr)
	if err != nil {
		return nil, err
	}
	defer st.lb.stop()
	const session = "traced"
	mirror := st.db.NewSession()
	var t tally
	correct := true
	op := 0
	write := func(stmt string) error {
		if err := st.exec(session, stmt); err != nil {
			return err
		}
		if !strings.HasPrefix(stmt, "INSERT") {
			_, err := mirror.Exec(stmt)
			return err
		}
		p0 := time.Now()
		_, perr := sql.ParseStatement(stmt)
		rep.writeParse += time.Since(p0)
		e0 := time.Now()
		_, err := mirror.Exec(stmt)
		rep.writeExec += time.Since(e0)
		rep.inserts++
		if perr != nil {
			return perr
		}
		return err
	}
	t.record(write("CREATE TABLE w (x int, y int)"))
	var sum int64
	for i := 0; i < svcTableRows; i++ {
		x := insertValue(seed, 0, i)
		sum += x
		t.record(write(fmt.Sprintf("INSERT INTO w VALUES (%d, %d)", x, i)))
		for k := 0; k < svcReadsPerWrite; k++ {
			rd := st.reads[op%len(st.reads)]
			runtime.GC() // as before the traced pipeline, so the two compare
			body, err := st.read(session, rd, op)
			rep.requests++
			rep.respBytes += len(body)
			t.record(err)

			want, rows, err := rep.pairedQuery(op, st.db.Catalog(), rd.query, "",
				func() (*perm.Result, error) { return mirror.Query(rd.query) })
			if want == nil {
				return nil, err
			}
			if err == nil {
				err = sameRows(rows, want.Rows)
			}
			if err != nil {
				correct = false
				logf("FAIL traced %q: %v", rd.query, err)
			}
			t.record(err)
			op++
		}
	}
	t.record(st.checkTable(session, "w", svcTableRows, sum))
	t.record(write("DROP TABLE w"))
	if err := st.lb.stop(); err != nil {
		return nil, err
	}
	rep.readServe, rep.readCompile = tr.compileShare()
	return finishTrace("service-mix", tr, rep, t, correct)
}

func finishTrace(name string, tr *tracer, rep *layerReport, t tally, correct bool) (*result, error) {
	if err := tr.write(name); err != nil {
		return nil, err
	}
	m := rep.metrics()
	fmt.Printf("traced %s: %d query ops, %d INSERTs, %d HTTP requests; tracing overhead %.1f%% (CPU time: traced pipeline %.1f ms vs DB.Query %.1f ms); compile share of server time %.1f%% (compile+rewrite+opt %.1f ms of ServeHTTP %.1f ms)\n",
		name, rep.c.queries, rep.inserts, rep.requests, m["trace.overhead_pct"].Value,
		ms(rep.traced), ms(rep.untraced), m["service.compile_share_pct"].Value, ms(rep.readCompile), ms(rep.readServe))
	return &result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// sameJSONRows compares a /query response body with a library result.
func sameJSONRows(body []byte, want *perm.Result) error {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	exp, err := expectedJSON(want)
	if err != nil {
		return err
	}
	if string(resp.Rows) != exp {
		return fmt.Errorf("response rows differ from the library result")
	}
	return nil
}
