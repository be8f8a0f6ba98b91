package main

import (
	"fmt"
	"math/rand"
	"sort"

	"perm"
	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/provenance"
	"perm/internal/rel"
	"perm/internal/schema"
	"perm/internal/sql"
	"perm/internal/types"
)

// The synth-fig7-9 inputs. The benchmark draws its own (a, b) tables
// instead of using internal/synth's: there, a is gaussian with standard
// deviation 100·n on both relations, so q1's a = ANY almost never holds
// and its provenance is empty at every size. Here each column holds a
// fixed multiset in an order drawn from synthDataSeed: b takes every value
// of [0, synthB) equally often (every table's size is a multiple of
// synthB), so a half-domain window keeps exactly half the rows and an
// equality correlation finds exactly n/synthB partners; a covers
// [0, synthA) on r2 and [-synthA/2, synthA) on r1, so both q1 (a = ANY)
// and q2 (a < ALL: the r1 rows below every r2 value) select rows.
//
// The rows and the query windows are a fixed function of synthDataSeed;
// the workload seed orders the work (the groups of a cycle) and the order
// in which every table's rows are inserted. With tables of 32–480 rows,
// which rows a window keeps moves result sizes by a third from one draw
// to the next (q2's provenance is every qualifying r1 row times the
// sublink's rows), so a seed-drawn data set would make every run a
// different workload, as on tpch-fig6.
const (
	synthA         = 64
	synthB         = 32
	synthInstances = 4
	synthDataSeed  = 1
)

// synthPoint is one (input size, sublink size) point of Figures 7–9.
type synthPoint struct {
	name     string
	r1, r2   int
	template []string // the query templates run at this point
}

var synthPoints = []synthPoint{
	{"in", 480, 32, []string{"q1", "q2"}},  // Figure 7: input-heavy
	{"sub", 32, 128, []string{"q1", "q2"}}, // Figure 8: sublink-heavy
	{"both", 96, 96, []string{"q1", "q2"}}, // Figure 9: both
	{"cor", 96, 96, []string{"q3", "q4"}},  // correlated, where Gen finishes
}

// synthQuery is one rendered instance with the parameters the direct Go
// evaluation needs.
type synthQuery struct {
	template string
	r1, r2   string // table names
	lo1, hi1 int64
	lo2, hi2 int64
	sql      string
}

func (q synthQuery) render() string {
	window := fmt.Sprintf("%s.b >= %d AND %s.b <= %d", q.r1, q.lo1, q.r1, q.hi1)
	switch q.template {
	case "q1":
		return fmt.Sprintf("SELECT * FROM %s WHERE %s AND %s.a = ANY (SELECT %s.a FROM %s WHERE %s.b >= %d AND %s.b <= %d)",
			q.r1, window, q.r1, q.r2, q.r2, q.r2, q.lo2, q.r2, q.hi2)
	case "q2":
		return fmt.Sprintf("SELECT * FROM %s WHERE %s AND %s.a < ALL (SELECT %s.a FROM %s WHERE %s.b >= %d AND %s.b <= %d)",
			q.r1, window, q.r1, q.r2, q.r2, q.r2, q.lo2, q.r2, q.hi2)
	case "q3":
		return fmt.Sprintf("SELECT * FROM %s WHERE %s AND %s.a > ANY (SELECT %s.a FROM %s WHERE %s.b = %s.b)",
			q.r1, window, q.r1, q.r2, q.r2, q.r2, q.r1)
	default: // q4
		return fmt.Sprintf("SELECT * FROM %s WHERE %s AND EXISTS (SELECT %s.a FROM %s WHERE %s.b = %s.b)",
			q.r1, window, q.r2, q.r2, q.r2, q.r1)
	}
}

// inner reports whether an r2 row belongs to the sublink's input for the
// outer row t.
func (q synthQuery) inner(t, s []any) bool {
	if q.template == "q3" || q.template == "q4" {
		return s[1].(int64) == t[1].(int64)
	}
	b := s[1].(int64)
	return b >= q.lo2 && b <= q.hi2
}

// holds evaluates the query's condition for the outer row t directly.
func (q synthQuery) holds(t []any, r2 [][]any) bool {
	b := t[1].(int64)
	if b < q.lo1 || b > q.hi1 {
		return false
	}
	a := t[0].(int64)
	some, all := false, true
	for _, s := range r2 {
		if !q.inner(t, s) {
			continue
		}
		sa := s[0].(int64)
		switch q.template {
		case "q1":
			some = some || a == sa
		case "q2":
			all = all && a < sa
		case "q3":
			some = some || a > sa
		default:
			some = true
		}
	}
	if q.template == "q2" {
		return all
	}
	return some
}

// synthTable draws n rows: a spreads evenly over [aLo, synthA) and b over
// [0, synthB), each column in its own seeded order.
func synthTable(name string, n int, aLo int64, r *rand.Rand) table {
	tb := table{name: name, cols: []string{"a", "b"}, kinds: []types.Kind{types.KindInt, types.KindInt}}
	as, bs := r.Perm(n), r.Perm(n)
	for i := 0; i < n; i++ {
		a := aLo + int64(as[i])*(synthA-aLo)/int64(n)
		b := int64(bs[i]) * synthB / int64(n)
		tb.rows = append(tb.rows, []any{a, b})
	}
	return tb
}

// synthExpect is the independently computed output of one instance.
type synthExpect struct {
	plain []string        // sorted row keys, with multiplicity
	prov  map[string]bool // distinct provenance rows
}

func buildSynth(seed int64) func() (*libWorkload, error) {
	return func() (*libWorkload, error) {
		r := rand.New(rand.NewSource(synthDataSeed))
		order := rand.New(rand.NewSource(seed))
		w := &libWorkload{}
		byName := map[string]table{}
		for _, p := range synthPoints {
			t1 := synthTable("r1_"+p.name, p.r1, -synthA/2, r)
			t2 := synthTable("r2_"+p.name, p.r2, 0, r)
			for _, t := range []table{t1, t2} {
				order.Shuffle(len(t.rows), func(i, j int) { t.rows[i], t.rows[j] = t.rows[j], t.rows[i] })
			}
			w.tables = append(w.tables, t1, t2)
			byName[t1.name], byName[t2.name] = t1, t2
		}
		note := fmt.Sprintf("synth-fig7-9: data seed %d, rows inserted in seed %d's order; |r1|x|r2|:", synthDataSeed, seed)
		for _, p := range synthPoints {
			note += fmt.Sprintf(" %s %dx%d %v;", p.name, p.r1, p.r2, p.template)
		}
		w.notes = append(w.notes, note+fmt.Sprintf(
			" a spread evenly over [0,%d) on r2 and [-%d,%d) on r1, b over [0,%d), each shuffled; %d instances per template and point",
			synthA, synthA/2, synthA, synthB, synthInstances))
		for _, p := range synthPoints {
			for _, tmpl := range p.template {
				for i := 0; i < synthInstances; i++ {
					q := synthQuery{template: tmpl, r1: "r1_" + p.name, r2: "r2_" + p.name}
					q.lo1 = r.Int63n(synthB / 2)
					q.hi1 = q.lo1 + synthB/2 - 1
					q.lo2 = r.Int63n(synthB / 2)
					q.hi2 = q.lo2 + synthB/2 - 1
					q.sql = q.render()
					name := tmpl + "-" + p.name
					g := group{template: name}
					g.ops = append(g.ops, libOp{cell: name + "/plain", query: q.sql})
					for _, s := range allStrategies {
						g.ops = append(g.ops, libOp{cell: name + "/" + string(s), query: provenanceOf(q.sql), strategy: s})
					}
					exp := &synthExpect{}
					t1, t2 := byName[q.r1], byName[q.r2]
					g.check = func(res []*perm.Result) []error { return checkSynthGroup(res, exp) }
					g.prepare = func() error { return exp.compute(q, t1, t2) }
					w.groups = append(w.groups, g)
				}
			}
		}
		return w, nil
	}
}

// compute fills in the expected outputs: the plain result by evaluating
// the condition in Go over the generated rows, the provenance from
// internal/provenance's Oracle (the closed forms of Theorems 1–3 under
// Definition 2, the definition the rewrites implement).
func (e *synthExpect) compute(q synthQuery, t1, t2 table) error {
	for _, t := range t1.rows {
		if q.holds(t, t2.rows) {
			e.plain = append(e.plain, rowKey(t, 0, 2))
		}
	}
	sort.Strings(e.plain)

	cat := catalog.New()
	for _, tb := range []table{t1, t2} {
		r := rel.New(schema.New("", tb.cols...))
		for _, row := range tb.rows {
			r.Add(rel.Tuple{types.NewInt(row[0].(int64)), types.NewInt(row[1].(int64))}, 1)
		}
		cat.Register(tb.name, r)
	}
	tr, err := sql.Compile(cat, q.sql)
	if err != nil {
		return err
	}
	sel, err := selectOverScan(tr.Plan)
	if err != nil {
		return err
	}
	tps, err := provenance.NewOracle(cat, provenance.Definition2).SelectionProvenance(sel)
	if err != nil {
		return err
	}
	e.prov = map[string]bool{}
	for _, tp := range tps {
		t := goRow(tp.Result)
		star := map[string]bool{}
		if sub, ok := tp.Sources["sub0"]; ok {
			for _, st := range sub.SortedTuples() {
				star[rowKey(goRow(st), 0, 1)] = true
			}
		}
		matched := false
		for _, s := range t2.rows {
			if q.inner(t, s) && star[rowKey(s, 0, 1)] {
				e.prov[rowKey([]any{t[0], t[1], t[0], t[1], s[0], s[1]}, 0, 6)] = true
				matched = true
			}
		}
		if !matched {
			e.prov[rowKey([]any{t[0], t[1], t[0], t[1], nil, nil}, 0, 6)] = true
		}
	}
	distinct := map[string]bool{}
	for _, k := range e.plain {
		distinct[k] = true
	}
	if len(tps) != len(distinct) {
		return fmt.Errorf("oracle selects %d distinct rows, direct evaluation %d", len(tps), len(distinct))
	}
	return nil
}

// selectOverScan finds σ_C(Scan) under the projections SELECT * adds.
func selectOverScan(op algebra.Op) (*algebra.Select, error) {
	for {
		switch o := op.(type) {
		case *algebra.Project:
			op = o.Child
		case *algebra.Select:
			if _, ok := o.Child.(*algebra.Scan); ok {
				return o, nil
			}
			return nil, fmt.Errorf("selection over %T, want a base relation", o.Child)
		default:
			return nil, fmt.Errorf("unexpected plan operator %T", op)
		}
	}
}

// checkSynthGroup compares the plain result with the direct evaluation
// (as a bag) and every provenance result with the oracle's (as a set of
// rows).
func checkSynthGroup(res []*perm.Result, exp *synthExpect) []error {
	errs := make([]error, len(res))
	var got []string
	for _, row := range res[0].Rows {
		got = append(got, rowKey(row, 0, len(row)))
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(exp.plain) {
		errs[0] = fmt.Errorf("plain result has %d rows, direct evaluation %d (or they differ)", len(got), len(exp.plain))
	}
	for i := 1; i < len(res); i++ {
		errs[i] = diffSets("provenance vs oracle", rowSet(res[i].Rows, 0, len(res[i].Columns)), exp.prov)
	}
	return errs
}
