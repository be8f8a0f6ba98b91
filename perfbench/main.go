// Command perfbench is the engine's benchmark: three workloads run through
// the public entry points (perm.DB, perm.Session, and service.Server over
// loopback HTTP) with the engine's defaults, their outputs checked, and
// their end-to-end metrics printed as one JSON object on the last line.
//
//	go run . --workload tpch-fig6 --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the workload's operations through the same pipeline with
// a span around every layer call instead, and prints the per-layer
// metrics. --spread N runs every workload N times (seeds 1..N) in child
// processes and prints each end-to-end metric's median and quartile
// spread against its bound in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

var workloads = map[string]func(seed int64, d time.Duration, trace bool) (*result, error){
	"tpch-fig6": func(seed int64, d time.Duration, trace bool) (*result, error) {
		return library("tpch-fig6", func() (*libWorkload, error) { return buildTPCH() }, seed, d, trace)
	},
	"synth-fig7-9": func(seed int64, d time.Duration, trace bool) (*result, error) {
		return library("synth-fig7-9", buildSynth(seed), seed, d, trace)
	},
	"service-mix": serviceMix,
}

func main() {
	workload := flag.String("workload", "", "workload to run: tpch-fig6, synth-fig7-9 or service-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "minimum measuring time; runs end on a whole cycle")
	trace := flag.Int("trace", 0, "1: run traced and print the per-layer metrics")
	spreadN := flag.Int("spread", 0, "run every workload this many times and print each metric's spread against its bound")
	verbose := flag.Bool("v", false, "with --spread: print every run's value")
	flag.Parse()

	if *spreadN > 0 {
		if err := spreadMode(*spreadN, *seconds, *workload, *verbose); err != nil {
			logf("perfbench: %v", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		logf("perfbench: unknown workload %q (want tpch-fig6, synth-fig7-9 or service-mix)", *workload)
		os.Exit(2)
	}
	res, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("perfbench: %s: %v", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// library runs one library workload: set-up, then either the timed closed
// loop or the traced run.
func library(name string, build func() (*libWorkload, error), seed int64, d time.Duration, trace bool) (*result, error) {
	reps := setupReps
	if trace {
		reps = 1
	}
	st, err := setUpLibrary(build, reps)
	if err != nil {
		return nil, err
	}
	if err := prepareChecks(st.w); err != nil {
		return nil, err
	}
	for _, n := range st.w.notes {
		fmt.Println(n)
	}
	if trace {
		return traceLibrary(name, st.w)
	}
	run := runLibrary(st, seed, d)
	fmt.Printf("cycles %d, ops %d, failed %d, cells %d; library calls took %.2f s CPU, %.2f s wall; peak RSS %.1f MB\n",
		run.cycles, run.tally.attempted, run.tally.failed, len(run.lat), run.busy.Seconds(), run.wall.Seconds(), peakRSSMB())
	fmt.Println("non-empty plain results per template (first cycle):", nonEmptyNote(run.nonEmpty))
	return &result{
		Correct:   true,
		Attempted: run.tally.attempted,
		Failed:    run.tally.failed,
		Metrics:   libMetrics(st, run),
	}, nil
}
