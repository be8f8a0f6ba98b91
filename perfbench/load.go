package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"perm"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/types"
)

// insertBatch is the number of rows one loading INSERT statement carries:
// one, as the service workload's writes, so write_p50_ms means the same
// operation on every workload and the median has a sample per row.
const insertBatch = 1

// table is one generated input relation, held by the benchmark so its
// checks can recompute results without the engine.
type table struct {
	name  string
	cols  []string
	kinds []types.Kind
	rows  [][]any
}

// tablesOf converts a generated catalog into benchmark-held tables, in
// catalog name order, expanding bag multiplicities into repeated rows.
func tablesOf(cat *catalog.Catalog) ([]table, error) {
	var out []table
	for _, name := range cat.Names() {
		r, err := cat.Relation(name)
		if err != nil {
			return nil, err
		}
		kinds, err := cat.Kinds(name)
		if err != nil {
			return nil, err
		}
		tb := table{name: name, kinds: kinds}
		for _, a := range r.Schema.Attrs {
			tb.cols = append(tb.cols, a.Name)
		}
		for _, t := range r.SortedTuples() {
			tb.rows = append(tb.rows, goRow(t))
		}
		out = append(out, tb)
	}
	return out, nil
}

func goRow(t rel.Tuple) []any {
	row := make([]any, len(t))
	for i, v := range t {
		row[i] = goValue(v)
	}
	return row
}

// goValue converts an engine value to the Go value perm.Result carries.
func goValue(v types.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	default:
		return v.Str()
	}
}

var kindNames = map[types.Kind]string{
	types.KindInt: "int", types.KindFloat: "float", types.KindString: "text", types.KindBool: "boolean",
}

// load creates every table through the public statement API — CREATE
// TABLE, then INSERT … VALUES in batches of insertBatch rows — and passes
// each INSERT's thread CPU time (see threadCPUTime) to onInsert. It
// collects the heap every gcEvery INSERTs and returns the CPU time those
// collections took.
func load(exec func(string) error, tables []table, onInsert func(time.Duration)) (time.Duration, error) {
	var gcCPU time.Duration
	var gc collector
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, tb := range tables {
		var b strings.Builder
		fmt.Fprintf(&b, "CREATE TABLE %s (", tb.name)
		for i, c := range tb.cols {
			if i > 0 {
				b.WriteString(", ")
			}
			kind, ok := kindNames[tb.kinds[i]]
			if !ok {
				kind = "int" // an all-NULL column
			}
			fmt.Fprintf(&b, "%s %s", c, kind)
		}
		b.WriteString(")")
		if err := exec(b.String()); err != nil {
			return gcCPU, fmt.Errorf("create %s: %w", tb.name, err)
		}
		for lo := 0; lo < len(tb.rows); lo += insertBatch {
			hi := min(lo+insertBatch, len(tb.rows))
			stmt := insertSQL(tb.name, tb.rows[lo:hi])
			gcCPU += gc.maybeCollect()
			t0 := threadCPUTime()
			err := exec(stmt)
			onInsert(threadCPUTime() - t0)
			if err != nil {
				return gcCPU, fmt.Errorf("insert into %s: %w", tb.name, err)
			}
		}
	}
	return gcCPU, nil
}

func insertSQL(name string, rows [][]any) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", name)
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(literal(v))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// literal renders a Go value as a SQL literal that parses back to the same
// engine value.
func literal(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	default:
		panic(fmt.Sprintf("literal: unsupported %T", v))
	}
}

// execOn adapts a DB or Session Exec to load's statement callback.
func execOn(exec func(string, ...perm.Option) (*perm.Result, error)) func(string) error {
	return func(stmt string) error {
		_, err := exec(stmt)
		return err
	}
}
