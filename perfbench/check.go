package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"perm"
)

// Output checks shared by the workloads. None of them compares against a
// recorded engine output: each one is either an independent computation
// or a property the provenance rewrite must have.

func cellString(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return strconv.Quote(x)
	default:
		return fmt.Sprint(x)
	}
}

// rowKey renders cells [lo, hi) of a row as one comparable string.
func rowKey(row []any, lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		if i > lo {
			b.WriteByte('|')
		}
		b.WriteString(cellString(row[i]))
	}
	return b.String()
}

// rowSet is the set of distinct rows, restricted to columns [lo, hi).
func rowSet(rows [][]any, lo, hi int) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		out[rowKey(r, lo, hi)] = true
	}
	return out
}

// diffSets reports the first element of want missing from got and the
// first element of got not in want.
func diffSets(what string, got, want map[string]bool) error {
	for k := range want {
		if !got[k] {
			return fmt.Errorf("%s: missing row %s (got %d distinct rows, want %d)", what, k, len(got), len(want))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("%s: unexpected row %s (got %d distinct rows, want %d)", what, k, len(got), len(want))
		}
	}
	return nil
}

// orderKey is one ORDER BY key of a query, by output column name.
type orderKey struct {
	col  string
	desc bool
}

var orderByRe = regexp.MustCompile(`(?is)ORDER\s+BY\s+(.*)$`)

// parseOrderBy extracts the top-level ORDER BY keys that name columns
// (the last ORDER BY clause of the statement).
func parseOrderBy(query string) []orderKey {
	m := orderByRe.FindStringSubmatch(strings.TrimSpace(query))
	if m == nil {
		return nil
	}
	var keys []orderKey
	for _, part := range strings.Split(m[1], ",") {
		f := strings.Fields(part)
		if len(f) == 0 {
			return keys
		}
		k := orderKey{col: f[0]}
		if len(f) > 1 && strings.EqualFold(f[1], "DESC") {
			k.desc = true
		}
		keys = append(keys, k)
	}
	return keys
}

// checkOrder verifies that the rows are sorted by the ORDER BY keys, as far
// as the keys are visible data columns (a hidden key ends the check, since
// later keys only order ties of it). NULLs sort last ascending, first
// descending.
func checkOrder(res *perm.Result, keys []orderKey) error {
	var cols []int
	var desc []bool
	for _, k := range keys {
		idx := -1
		for i := 0; i < res.DataColumns; i++ {
			if res.Columns[i] == k.col {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		cols = append(cols, idx)
		desc = append(desc, k.desc)
	}
	for r := 1; r < len(res.Rows); r++ {
		for i, c := range cols {
			cmp := compareValues(res.Rows[r-1][c], res.Rows[r][c])
			if desc[i] {
				cmp = -cmp
			}
			if cmp < 0 {
				break
			}
			if cmp > 0 {
				return fmt.Errorf("ORDER BY %s violated at row %d: %s before %s",
					res.Columns[c], r, cellString(res.Rows[r-1][c]), cellString(res.Rows[r][c]))
			}
		}
	}
	return nil
}

// compareValues orders two result cells: numbers numerically, strings
// lexically, NULL after every value.
func compareValues(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return 1
	case b == nil:
		return -1
	}
	if x, ok := num(a); ok {
		if y, ok := num(b); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

func num(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// checkProvGroups verifies that every provenance group of every row is
// either all NULL or a row of its base relation. base maps a relation name
// to its set of row keys.
func checkProvGroups(res *perm.Result, base map[string]map[string]bool) error {
	for _, row := range res.Rows {
		at := res.DataColumns
		for _, g := range res.Provenance {
			lo, hi := at, at+len(g.Columns)
			at = hi
			if hi > len(row) {
				return fmt.Errorf("provenance group %s overruns a %d-column row", g.Relation, len(row))
			}
			allNull := true
			for _, v := range row[lo:hi] {
				if v != nil {
					allNull = false
				}
			}
			if allNull {
				continue
			}
			rows, ok := base[g.Relation]
			if !ok {
				return fmt.Errorf("provenance group names unknown relation %s", g.Relation)
			}
			if k := rowKey(row, lo, hi); !rows[k] {
				return fmt.Errorf("provenance group %s = (%s) is not a row of %s", g.Relation, k, g.Relation)
			}
		}
	}
	return nil
}

// baseRowSets indexes generated tables by name for checkProvGroups.
func baseRowSets(tables []table) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, tb := range tables {
		out[tb.name] = rowSet(tb.rows, 0, len(tb.cols))
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
