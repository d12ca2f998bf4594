// Command perfbench is the repository benchmark: it runs one workload
// in-process, drives it from closed-loop clients in this process,
// checks every output against an exact model, and prints the workload's
// metrics as one JSON line. Build and run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload point-cached --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a separate
// traced measurement, prints the per-layer metrics and writes a Chrome
// trace. README.md explains the workloads and the metric map.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// endToEnd lists the end-to-end metrics every workload prints with
// --trace 0, in print order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"get_p50_ms", "ms"},
	{"get_p90_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"put_p90_ms", "ms"},
	{"scan_p50_ms", "ms"},
	{"scan_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"heap_peak_mb", "MB"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// workloads lists the workload names in the order BENCHMARK.json does.
var workloads = []string{"point-cached", "durable-compressed", "cluster-replicated", "kernel-ooc"}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

// run parses args, runs the workload and prints the result line. It
// returns 0 on success, 1 when an output check failed (the result line
// says correct=false) and 2 when the run could not complete.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs and op streams")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workDir := fl.String("workdir", ".bench_build", "scratch directory for data files and the trace")
	corrupt := fl.Bool("corrupt", false, "TESTING ONLY: corrupt one payload before it is checked; the run must fail")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir, corrupt: *corrupt}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(filepath.Join(cfg.workDir, "data-"+strconv.Itoa(os.Getpid())))

	var res result
	var err error
	switch {
	case cfg.workload == "kernel-ooc":
		res, err = runKernel(cfg)
	case servingWorkloads[cfg.workload].start != nil:
		res, err = runServing(cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", cfg.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		res.correct = false
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	fmt.Fprintln(stdout, resultJSON(res, names))
	if !res.correct {
		return 1
	}
	return 0
}

// resultJSON renders the result line; every listed metric appears, in
// order, with all its digits.
func resultJSON(r result, names []struct{ name, unit string }) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		v := r.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// timeSetups runs start until it has run setupReps times and for
// setupMin, and returns the last instance with the median set-up time;
// the earlier instances are torn down.
func timeSetups[T any](start func(rep int) (T, error), teardown func(T) error) (T, float64, error) {
	var times []float64
	begin := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		inst, err := start(rep)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up %d: %w", rep, err)
		}
		if rep+1 >= setupReps && time.Since(begin) >= setupMin {
			return inst, median(times), nil
		}
		if err := teardown(inst); err != nil {
			var zero T
			return zero, 0, fmt.Errorf("tearing down set-up %d: %w", rep, err)
		}
	}
}

// writeTrace saves the traced window's spans as Chrome trace JSON.
func writeTrace(cfg runConfig, spans []span) error {
	path := filepath.Join(cfg.workDir, "trace-"+cfg.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
