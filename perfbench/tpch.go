package main

import (
	"fmt"
	"strings"

	"perm"
	"perm/internal/tpch"
)

// The tpch-fig6 inputs. The database is a fixed function of the scale
// factor, as a TPC-H database is of dbgen's scale; the query instances are
// a fixed qgen stream. The seed orders the work (the groups of a cycle),
// and changes nothing else: Gen's cost on these templates is bimodal in
// the instance parameters — Gen Q2 takes about 70 ms on most instances
// and about 3 s on those whose p_size matches a part — so a seed-drawn
// instance set would make every run a different workload.
const (
	tpchScale     = 0.1
	tpchDataSeed  = 1
	tpchInstances = 6
)

// allStrategies are the rewrite strategies tried on every provenance
// query; set-up drops the ones that do not apply to a query's shape.
var allStrategies = []perm.Strategy{perm.Gen, perm.Left, perm.Move, perm.Unn, perm.UnnX, perm.Auto}

// provenanceOf turns a query into its SELECT PROVENANCE form.
func provenanceOf(query string) string {
	q := strings.TrimSpace(query)
	return "SELECT PROVENANCE" + strings.TrimPrefix(q, "SELECT")
}

func buildTPCH() (*libWorkload, error) {
	cat, counts := tpch.Generate(tpch.Config{SF: tpchScale, Seed: tpchDataSeed})
	tables, err := tablesOf(cat)
	if err != nil {
		return nil, err
	}
	w := &libWorkload{tables: tables}
	w.notes = append(w.notes, fmt.Sprintf(
		"tpch-fig6: SF %g (data seed %d): region %d, nation %d, supplier %d, part %d, partsupp %d, customer %d, orders %d, lineitem %d rows; instances 1..%d of each of the nine templates",
		tpchScale, tpchDataSeed, counts.Region, counts.Nation, counts.Supplier, counts.Part, counts.PartSupp,
		counts.Customer, counts.Orders, counts.Lineitem, tpchInstances))
	base := baseRowSets(tables)
	for _, q := range tpch.SublinkQueries() {
		for inst := int64(1); inst <= tpchInstances; inst++ {
			sqlText := strings.TrimSpace(q.Instance(inst))
			name := fmt.Sprintf("Q%d", q.Num)
			g := group{template: name}
			g.ops = append(g.ops, libOp{cell: name + "/plain", query: sqlText})
			for _, s := range allStrategies {
				g.ops = append(g.ops, libOp{cell: name + "/" + string(s), query: provenanceOf(sqlText), strategy: s})
			}
			keys := parseOrderBy(sqlText)
			g.check = func(res []*perm.Result) []error { return checkTPCHGroup(res, keys, base) }
			w.groups = append(w.groups, g)
		}
	}
	return w, nil
}

// checkTPCHGroup checks one instance's plain result and its provenance
// results: every result honours the ORDER BY keys; every provenance
// result's distinct data columns equal the plain result as a set; every
// non-NULL provenance group is a row of its base relation; and every
// strategy returns the same provenance (as a set of rows — multiplicities
// of identical provenance rows are rewrite artifacts).
func checkTPCHGroup(res []*perm.Result, keys []orderKey, base map[string]map[string]bool) []error {
	errs := make([]error, len(res))
	plain := res[0]
	errs[0] = checkOrder(plain, keys)
	plainSet := rowSet(plain.Rows, 0, plain.DataColumns)
	var ref map[string]bool
	for i := 1; i < len(res); i++ {
		r := res[i]
		if err := checkOrder(r, keys); err != nil {
			errs[i] = err
			continue
		}
		if err := diffSets("provenance data columns vs plain result", rowSet(r.Rows, 0, r.DataColumns), plainSet); err != nil {
			errs[i] = err
			continue
		}
		if err := checkProvGroups(r, base); err != nil {
			errs[i] = err
			continue
		}
		got := rowSet(r.Rows, 0, len(r.Columns))
		if ref == nil {
			ref = got
			continue
		}
		errs[i] = diffSets("provenance vs the first strategy's", got, ref)
	}
	return errs
}
