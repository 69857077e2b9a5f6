// Command perfbench is the end-to-end benchmark of the soxqd corpus server.
//
// One run generates a seeded workload, starts a fresh soxqd process, loads
// the workload's documents over HTTP, drives the server from one client
// process for a fixed time, checks every response, and prints one JSON
// result line as the last line of stdout:
//
//	perfbench --soxqd PATH --out DIR --workload W --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, which adds the
// in-process layer ladder (see ladder.go and LAYERS.md). run.sh builds the
// server and this driver from the checkout and invokes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	soxqd    string
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"xmark-joins", "corpus-stream", "annotate-mixed"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: xmark-joins, corpus-stream or annotate-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.soxqd, "soxqd", "", "path of the soxqd binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span logs")
	flag.Parse()
	o.trace = trace == 1
	if o.soxqd == "" || o.seconds < 1 || !slices.Contains(workloads, o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: need --soxqd, --seconds >= 1 and --workload one of %v\n", workloads)
		os.Exit(2)
	}
	b := &bench{opts: o, rng: newRand(o.seed)}
	// An interrupted run still stops its server before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.stopServer()
		os.Exit(1)
	}()
	res, err := b.run()
	b.stopServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printSummary writes the metrics as a table to stderr, for a reader.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
