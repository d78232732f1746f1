// Command bench is the end-to-end benchmark of the RA-linearizability checker.
// It drives four workloads through the checker's public entry points, checks
// every verdict against a reference answer computed in set-up, and reports
// the end-to-end metrics of untraced passes and the per-layer metrics of
// traced passes, which time each call into a layer from outside.
//
//	bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// A run of one workload with --trace 0 or 1 reports one set of metrics. Any
// other run — all workloads, or no --trace — runs each (workload, trace)
// pair in a child process of its own, one after another, so set-up time and
// peak memory are per workload. Each metric is printed as
// "workload metric value unit n=samples"; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
// The exit code is 0 when every decision matched its reference, 1 when one
// did not, and 2 when the benchmark could not run. See README.md for the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the timed phase runs, in seconds")
	trace := fs.Int("trace", -1, "0 reports the end-to-end metrics, 1 the per-layer metrics of the traced pass; unset, both")
	spans := fs.String("spans", "", "with --trace 1, write the spans of the first traced pass to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace < -1 || *trace > 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "bench: --seconds must not be negative\n")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads()
	} else if w, ok := lookupWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if len(ws) > 1 || *trace == -1 {
		traces := []int{0, 1}
		if *trace != -1 {
			traces = []int{*trace}
		}
		return runAll(ws, traces, cfg, stdout, stderr)
	}
	w := ws[0]
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	if res.firstFailure != "" {
		fmt.Fprintf(stderr, "bench: %s: %d of %d decisions failed; first: %s\n", w.name, res.Failed, res.Attempted, res.firstFailure)
	}
	if err := printResult(stdout, w.name, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes one line per metric, then the share of failed
// decisions, then the JSON result line.
func printResult(w io.Writer, workload string, res result) error {
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-20s %-30s %18.6f %-5s n=%d\n", workload, name, m.Value, m.Unit, m.samples)
	}
	fmt.Fprintf(w, "%-20s %-30s %18.6f %-5s n=%d\n", workload, "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "frac", res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload once per trace setting, each in a child process
// of its own, one after another; relays their metric lines; and ends with
// one JSON line whose metrics are named workload/metric.
func runAll(ws []workload, traces []int, cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: locating the benchmark binary: %v\n", err)
		return 2
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range ws {
		for _, trace := range traces {
			args := []string{
				"--workload", w.name,
				"--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"--trace", strconv.Itoa(trace),
			}
			if cfg.spans != "" && trace == 1 {
				args = append(args, "--spans", strings.TrimSuffix(cfg.spans, ".jsonl")+"."+w.name+".jsonl")
			}
			child, err := runChild(self, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 2
				all.Correct = false
				continue
			}
			all.Correct = all.Correct && child.Correct
			all.Attempted += child.Attempted
			all.Failed += child.Failed
			for name, m := range child.Metrics {
				all.Metrics[w.name+"/"+name] = m
			}
			if !child.Correct && code == 0 {
				code = 1
			}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding the result: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// runChild runs one workload process, copies all but its JSON result line to
// stdout, and decodes that line.
func runChild(self string, args []string, stdout, stderr io.Writer) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return result{}, fmt.Errorf("reading the workload output: %w", scanErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if waitErr != nil {
			return result{}, waitErr
		}
		return result{}, fmt.Errorf("decoding the workload result %q: %w", last, err)
	}
	return res, nil
}
