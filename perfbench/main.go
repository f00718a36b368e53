// Command perfbench is the repository's benchmark. It runs one workload
// per process, checks the program's outputs, and prints a detail line and
// then a one-line JSON result:
//
//	perfbench --workload rmat-rc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// the harness's tracing off; with --trace 1 it carries the per-layer
// metrics of a separate, traced run. See README.md for the workloads and
// the definition of every metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"dbcc"
	"dbcc/internal/datagen"
	"dbcc/internal/graph"
)

// Workload sizes; README.md gives the reasons.
const (
	rmatScale = 14
	rmatEdges = 2_080_000
	// path-spill runs on 2 segments (one per worker) with a memory budget
	// of about half an unbounded rc run's peak working memory on this path
	// (11.6 MB). README.md says why not a tenth.
	pathVertices = 200_000
	pathSegments = 2
	pathBudget   = 6 << 20
)

var batchWorkloads = map[string]batchWorkload{
	"rmat-rc": {
		graph: func(seed uint64) *graph.Graph {
			return datagen.RMAT(rmatScale, rmatEdges, 0.57, 0.19, 0.19, 0.05, seed)
		},
	},
	"path-spill": {
		graph: func(seed uint64) *graph.Graph {
			g := datagen.Path(pathVertices)
			g.RandomizeIDs(seed)
			return g
		},
		config: dbcc.Config{Segments: pathSegments, MemoryBudget: pathBudget},
	},
}

// workloadNames lists every workload in the order --workload all runs them.
var workloadNames = []string{"rmat-rc", "path-spill", "stream-index"}

func main() {
	workload := flag.String("workload", "", "rmat-rc, path-spill, stream-index, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and of rc")
	secs := flag.Int("seconds", 20, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *secs, *trace))
	}
	window := time.Duration(*secs) * time.Second
	traced := *trace == 1

	var o *outcome
	var err error
	if w, ok := batchWorkloads[*workload]; ok {
		o, err = runBatch(w, *seed, window, traced)
	} else if *workload == "stream-index" {
		o, err = runStream(*seed, window, traced)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if err := o.write(os.Stdout, *workload, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *workload, p)
	}
	if !o.correct {
		os.Exit(1)
	}
}

// runAll runs every workload with the same flags, each in a child process
// of its own so that no workload's peak RSS includes another's graph, and
// returns the exit code: 1 if any workload failed.
func runAll(seed uint64, secs, trace int) int {
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
