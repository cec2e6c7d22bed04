// Command perfbench is BlendHouse's end-to-end benchmark: it sets up
// one workload on engines configured as `blendhouse serve` runs them,
// drives it through pkg/client over HTTP from this process, checks
// every answer, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of standard output. See
// README.md for the workloads and the metric → layer map.
//
//	go run . -workload hybrid-warm -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
	nproc            = runtime.NumCPU()
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's metrics, operation counts and
// correctness verdict.
type run struct {
	ctx       context.Context
	workload  string
	seed      int64
	seconds   int
	traced    bool
	tr        *tracer     // nil unless traced
	tracing   atomic.Bool // a traced load phase is running
	metrics   map[string]metric
	attempted int64
	failed    int64
	gateFails []string
}

// set records a metric and prints it for the reader.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", name, v, unit)
}

// note prints a line of context that is not a gated metric.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(stdout, "  # "+format+"\n", args...)
}

// gate records a correctness check; any failure fails the run.
func (r *run) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		fmt.Fprintf(stdout, "  gate ok:   %s\n", msg)
		return
	}
	fmt.Fprintf(stdout, "  GATE FAIL: %s\n", msg)
	r.gateFails = append(r.gateFails, msg)
}

// count adds a phase's operations to the run's totals.
func (r *run) count(res loadResult) {
	r.attempted += res.attempted
	r.failed += res.failed
}

// latency records a phase's latencies under the percentile rule: the
// median is the metric <prefix>_p50_ms; the highest percentile with ten
// samples beyond it and the sample count are printed beside it, with
// the deciles. The tail is not a metric: on ingest-mixed it rests on
// about eleven reader statements and moved 0.19–0.25 of its median
// between runs of the same code.
func (r *run) latency(prefix string, lats []time.Duration) {
	t := summarize(lats)
	r.set(prefix+"_p50_ms", t.P50, "ms")
	r.note("%s latency: %d samples; p%g %.4f ms (order statistic %.4f ms)", prefix, t.N, t.TailPct, t.Tail, t.TailOrder)
	r.note("%s latency deciles (ms): %s", prefix, fmtFloats(deciles(lats)))
}

var workloads = map[string]func(*run) error{
	"hybrid-warm":  hybridWarm,
	"cold-start":   coldStart,
	"ingest-mixed": ingestMixed,
}

func main() {
	workload := flag.String("workload", "", "workload to run: hybrid-warm | cold-start | ingest-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phases, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
	traceOut := flag.String("trace-out", ".bench_build/perfbench-traces", "directory the traced run writes its span file to")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	r := &run{
		ctx: context.Background(), workload: *workload, seed: *seed,
		seconds: *seconds, traced: *trace == 1, metrics: map[string]metric{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	printEnv(r)
	start, steal0 := time.Now(), stealTicks()
	err := fn(r)
	if err == nil && r.traced {
		err = r.tr.write(*traceOut, r.workload, r.seed)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		os.Exit(1)
	}
	if n := flushErrors.Load(); n > 0 {
		r.failed += n
		r.attempted += n
		r.note("%d background WAL flushes failed", n)
	}
	took := time.Since(start)
	r.note("workload took %.1f s, set-ups included; the host took %s of its CPU time (steal)", took.Seconds(), stealShare(steal0, took))
	if r.attempted > 0 {
		r.note("error_rate = %.6f (%d failed of %d attempted)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.gateFails) == 0, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printEnv prints the environment block: what produced these numbers.
func printEnv(r *run) {
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	fmt.Fprintf(stdout, "  env git_sha=%s go=%s os/arch=%s/%s\n", gitSHA(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "  env cpu=%q nproc=%d gomaxprocs=%d sleep_floor_ms=%.3f\n", cpuModel(), nproc, runtime.GOMAXPROCS(0), sleepFloorMS())
	fmt.Fprintf(stdout, "  env engine=serve defaults (column cache, semantic 0.5, autoindex, WAL 8192 rows/32MiB/2s, retry 4, adaptive batching, trace-sample 1, admission 2xGOMAXPROCS, no compaction)\n")
	fmt.Fprintf(stdout, "  env store=remote %v/op %d B/s; clients<=%d connections\n", remoteConfig.OpLatency, remoteConfig.BytesPerSecond, nproc)
}

// gitSHA reads HEAD from a .git directory above the working directory,
// if there is one; benchmark checkouts usually have none.
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: "))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// stealTicks reads the CPU time the hypervisor gave to others (the
// steal column of /proc/stat, in USER_HZ ticks), or -1.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// stealShare is the share of the machine's CPU time stolen since
// stealTicks read from: a run slowed by other guests on the host shows
// here. It assumes the usual 100 ticks per second.
func stealShare(from int64, over time.Duration) string {
	to := stealTicks()
	if from < 0 || to < 0 || over <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(to-from)/100/(over.Seconds()*float64(nproc)))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sleepFloorMS is the median time.Sleep(50µs) actually takes: the
// smallest delay the remote-store model can charge on this host.
func sleepFloorMS() float64 {
	ds := make([]time.Duration, 21)
	for i := range ds {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		ds[i] = time.Since(t0)
	}
	return medianDur(ds, time.Millisecond)
}
