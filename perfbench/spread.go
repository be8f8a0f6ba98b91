package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the spread mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadMode runs every workload n times, with seeds 1..n, each in a child
// process of this binary, and prints per (workload, metric) the median,
// the quartiles and their distance as a share of the median, against the
// metric's bound; with only set, of that workload alone, and with verbose
// each run's value too. It fails when a run fails or has a failed
// operation, or when a spread other than setup_s's reaches a third of its
// bound.
func spreadMode(n, seconds int, only string, verbose bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("spread mode runs from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	steady := true
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		shares := map[string]bool{}
		for seed := 1; seed <= n; seed++ {
			res, err := runChild(self, w.Name, seed, seconds)
			if err != nil {
				return err
			}
			shares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			if res.Failed != 0 {
				steady = false
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d failed %d\n", w.Name, seed, res.Attempted, res.Failed)
		}
		fmt.Printf("%s (%d runs; failed/attempted per run: %s)\n", w.Name, n, strings.Join(sortedKeys(shares), ", "))
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			if len(xs) != n {
				return fmt.Errorf("%s: metric %s missing from a run", w.Name, m.Name)
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			flag := ""
			if m.Name != "setup_s" && sp >= m.Bound/3 {
				flag = "  above bound/3"
				steady = false
			}
			fmt.Printf("  %-20s %12s %12s %12s %7.1f%% %5.0f%%%s\n", m.Name, num6(median(xs)), num6(q1), num6(q3), 100*sp, 100*m.Bound, flag)
			if verbose {
				fmt.Printf("  %-20s %v\n", "", xs)
			}
		}
	}
	if !steady {
		return fmt.Errorf("not steady: see the flagged rows")
	}
	return nil
}

func num6(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

// runChild runs one workload in a child process and parses the JSON result
// on its last output line.
func runChild(self, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: correct is false", workload, seed)
	}
	return &res, nil
}

// nonEmptyNote renders the share of instances with a non-empty plain
// result per template, e.g. "Q2 0/6, Q11 6/6".
func nonEmptyNote(m map[string]*[2]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %d/%d", k, m[k][0], m[k][1])
	}
	return strings.Join(parts, ", ")
}
