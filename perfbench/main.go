// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, checks every output, and prints its metrics: the
// end-to-end metrics by default, the per-layer breakdown with -trace 1.
//
//	serve-cold  POST /query against a real upa-server, every request a
//	            cache miss (influence compilation, release, ledger journal)
//	serve-hot   POST /query on a warmed key set, every request a cache hit
//	            (plan resolution, fingerprinting, cache, HTTP/JSON)
//	lib-paper9  the paper's nine Table II queries through Runner.RunUPA on
//	            one long-lived core.System (mapreduce, jobgraph, core)
//
// Usage, from the repository root (run.sh builds this command and
// upa-server first):
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable table of the same
// metrics, with sample counts, goes to standard error. The command exits
// non-zero when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

var workloads = []string{"serve-cold", "serve-hot", "lib-paper9"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string // upa-server binary
	workdir  string // scratch space for server state
	sc       scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run: its options, its op and failure
// counts, the metrics it reports and the notes printed beside them.
type run struct {
	options
	attempted, failed int64
	metrics           map[string]metric
	notes             []string
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// tmpDir is where the run's servers and probes keep their temporary state.
func (r *run) tmpDir() string { return filepath.Join(r.workdir, "tmp") }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation or output check; the first few are
// reported on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var o options
	var trace string
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: serve-cold, serve-hot, lib-paper9, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: request seeds and noise streams derive from it")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.StringVar(&trace, "trace", "0", "1: report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.server, "server", "", "path to the upa-server binary (serve workloads)")
	fs.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for the servers' temporary state")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != "0" && trace != "1") {
		fmt.Fprintln(os.Stderr, "perfbench: bad -seconds or -trace")
		return 2
	}
	o.sc = fullScale
	o.trace = trace == "1"

	// Stop every server on SIGINT/SIGTERM/SIGHUP too, not only on return.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		stopAllServers()
		os.Exit(2)
	}()
	defer stopAllServers()

	if err := refuseConcurrentServer(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.workload == "all" {
		return runAll(o)
	}
	res, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs o.workload once and reports its table on standard error.
func runOne(o options) (result, error) {
	r := &run{options: o, metrics: make(map[string]metric)}
	ctx := context.Background()
	var err error
	switch o.workload {
	case "serve-cold", "serve-hot":
		if o.server == "" {
			return result{}, fmt.Errorf("-server is required for %s", o.workload)
		}
		err = runServe(ctx, r, o.workload == "serve-hot")
	case "lib-paper9":
		err = runLib(ctx, r)
	default:
		return result{}, fmt.Errorf("unknown workload %q (have %v or all)", o.workload, workloads)
	}
	if err != nil {
		return result{}, err
	}
	errorShare := ratio(float64(r.failed), float64(r.attempted))
	r.report(errorShare)
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// runAll runs every workload untraced and traced, prints each table, and
// ends with one combined result line whose metric names are prefixed with
// the workload.
func runAll(o options) int {
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = wl, traced
			fmt.Fprintf(os.Stderr, "== %s trace=%v\n", wl, traced)
			res, err := runOne(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, m := range res.Metrics {
				total.Metrics[wl+"/"+name] = m
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// report prints the run's metrics, one per line with its unit, then the
// notes (sample counts, latency modes) on standard error.
func (r *run) report(errorShare float64) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	w := os.Stderr
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%v scale=%s\n", r.workload, r.seed, r.seconds, r.trace, r.sc.name)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-40s %14.6g %s  (%d failed of %d attempted)\n", "error_share", errorShare, "share", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
