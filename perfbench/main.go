// Command perfbench is the SPEED benchmark. It runs one named workload
// against an in-process resultstore on loopback TCP, drives
// dedup.Runtime.Execute from closed-loop callers, checks every result
// against a digest computed in set-up, and prints its metrics.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// an untraced and a traced phase and prints the per-layer metrics, the
// cost ladder of a mean call and the span breakdown of the slowest
// calls. The last line of standard output is one JSON object with the
// listed metrics. See README.md.
//
//	go run . -workload hit-small -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"speed/internal/enclave"
)

// An end-to-end run sets its workload up at least minSetupRuns times,
// and more while the set-ups so far took less than setupBudget, up to
// maxSetupRuns; setup_s is their median. A quick set-up is repeated
// more, so that its median does not follow a single scheduling stall.
const (
	minSetupRuns = 3
	maxSetupRuns = 15
	setupBudget  = 2 * time.Second
)

// warmUpTime is how long a workload runs untimed before each timed
// phase: on chunk-neardup the first second of calls ran 10-15% slower
// than the rest of the run.
const warmUpTime = time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	workDir := fs.String("workdir", os.TempDir(), "directory for log-engine data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds >= 1, -trace 0|1\n", strings.Join(workloadOrder, ", "))
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	printEnv(stdout)

	var res result
	var err error
	d := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		res, err = runEndToEnd(stdout, newWorkload, *seed, *workDir, d, start)
	} else {
		res, err = runTraced(stdout, newWorkload, *seed, *workDir, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED: wrong outputs, errors or outcome-mix violations (see above)")
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// setUp builds a workload, timing it from from.
func setUp(newWorkload func() workloadRunner, seed int64, workDir string, tr *tracer, from time.Time) (workloadRunner, time.Duration, error) {
	w := newWorkload()
	if err := w.setup(seed, workDir, tr); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(from), nil
}

func runEndToEnd(out io.Writer, newWorkload func() workloadRunner, seed int64, workDir string, d time.Duration, start time.Time) (result, error) {
	// The first set-up is timed from process start; each set-up but the
	// last is torn down again.
	var w workloadRunner
	var setups []time.Duration
	var spent time.Duration
	from := start
	for i := 0; i < maxSetupRuns && (i < minSetupRuns || spent < setupBudget); i++ {
		if w != nil {
			w.close()
		}
		var took time.Duration
		var err error
		if w, took, err = setUp(newWorkload, seed, workDir, nil, from); err != nil {
			return result{}, err
		}
		setups = append(setups, took)
		spent += took
		from = time.Now()
	}
	defer w.close()
	if err := warmUp(w); err != nil {
		return result{}, err
	}
	p, err := runPhase(w, d)
	if err != nil {
		return result{}, err
	}
	printConfig(out, w)
	res := checkPhase(out, w, p, "")

	var missSamples []callSample
	missNote := ""
	if h, ok := w.(*hitSmall); ok {
		missSamples = h.prepop
		missNote = "from set-up pre-population, 1 caller"
	}
	fmt.Fprintf(out, "end-to-end (untraced, %d calls in %.2fs over %d timed intervals):\n", len(p.samples), p.elapsed.Seconds(), p.intervals)
	for _, m := range endToEnd(p, setups, missSamples, missNote) {
		printMetric(out, m, "")
		if m.listed && !addListed(&res, m) {
			res.Correct = false
		}
	}
	printExact(out, p)
	return res, nil
}

func runTraced(out io.Writer, newWorkload func() workloadRunner, seed int64, workDir string, d time.Duration) (result, error) {
	w, _, err := setUp(newWorkload, seed, workDir, nil, time.Now())
	if err != nil {
		return result{}, err
	}
	err = warmUp(w)
	var untraced *phase
	if err == nil {
		untraced, err = runPhase(w, d/2)
	}
	w.close()
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	if w, _, err = setUp(newWorkload, seed, workDir, tr, time.Now()); err != nil {
		return result{}, err
	}
	defer w.close()
	if err := warmUp(w); err != nil {
		return result{}, err
	}
	tr.reset()
	traced, err := runPhase(w, d/2)
	if err != nil {
		return result{}, err
	}
	printConfig(out, w)
	res := checkPhase(out, w, untraced, "untraced ")
	resT := checkPhase(out, w, traced, "traced ")
	res.Correct = res.Correct && resT.Correct
	res.Attempted += resT.Attempted
	res.Failed += resT.Failed

	l := &layerInput{traced: traced, untraced: untraced, tr: tr}
	fmt.Fprintf(out, "per-layer (untraced phase %d calls in %.2fs, traced phase %d calls in %.2fs):\n",
		len(untraced.samples), untraced.elapsed.Seconds(), len(traced.samples), traced.elapsed.Seconds())
	for i, m := range perLayer(l) {
		printMetric(out, m, "moves: "+layerMetrics[i].moves)
		if m.listed && !addListed(&res, m) {
			res.Correct = false
		}
	}
	printExact(out, traced)
	printLadder(out, l)
	printSlowest(out, tr)
	return res, nil
}

// warmUp runs w untimed for warmUpTime. Its results are checked like
// those of a timed phase; a wrong one or an error fails the run.
func warmUp(w workloadRunner) error {
	p, err := runPhase(w, warmUpTime)
	if err != nil {
		return err
	}
	if p.errors+p.wrong > 0 {
		return fmt.Errorf("warm-up: %d errors, %d outputs differing from their set-up digest", p.errors, p.wrong)
	}
	return nil
}

// checkPhase reports the output and outcome-mix checks of a phase and
// starts its result.
func checkPhase(out io.Writer, w workloadRunner, p *phase, label string) result {
	violations, why := w.check(p)
	attempted := int64(len(p.samples)) + p.errors
	failed := p.errors + p.wrong + violations
	n := p.outcomes()
	var mix []string
	for _, o := range sortedOutcomes(n) {
		mix = append(mix, fmt.Sprintf("%v=%d", o, n[o]))
	}
	fmt.Fprintf(out, "%scheck: %d calls, outcomes %s; %d errors, %d outputs differing from their set-up digest\n",
		label, attempted, strings.Join(mix, " "), p.errors, p.wrong)
	for _, s := range why {
		fmt.Fprintf(out, "%scheck: OUTCOME MIX VIOLATED: %s\n", label, s)
	}
	fmt.Fprintf(out, "%scheck: error_ratio %.6g (errors + wrong outputs + mix violations) / attempted\n", label, ratio(failed, attempted))
	return result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]jsonMetric{},
	}
}

// addListed puts a metric into the JSON result; it reports false when
// the metric is absent.
func addListed(res *result, m metric) bool {
	if !m.ok {
		fmt.Fprintf(os.Stderr, "perfbench: listed metric %s has no value on this workload\n", m.name)
		return false
	}
	res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	return true
}

func printMetric(out io.Writer, m metric, extra string) {
	if !m.ok {
		fmt.Fprintf(out, "  %-34s absent (no samples on this workload)", m.name)
	} else {
		fmt.Fprintf(out, "  %-34s %14.6g %-7s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(out, " n=%d", m.n)
		}
	}
	if m.note != "" {
		fmt.Fprintf(out, " (%s)", m.note)
	}
	if extra != "" {
		fmt.Fprintf(out, "  [%s]", extra)
	}
	fmt.Fprintln(out)
}

func printConfig(out io.Writer, w workloadRunner) {
	for _, line := range w.config() {
		fmt.Fprintf(out, "config: %s\n", line)
	}
}

// printExact prints the counts that repeat exactly for a seed.
func printExact(out io.Writer, p *phase) {
	if p.exact == nil {
		return
	}
	r := p.exact.Runtime
	fmt.Fprintf(out, "exact (first complete pass): calls=%d chunked_puts=%d chunks_cut=%d chunks_skipped=%d chunks_fetched=%d chunk_cache_hits=%d store_puts=%d stored_bytes_per_result_byte=%.6f\n",
		r.Calls, r.ChunkedPuts, p.exactChunksCut, r.ChunksSkipped, r.ChunksFetched, r.ChunkCacheHits, p.exact.Store.Puts, ratio(p.storedBytes, p.resultBytes))
}

// printEnv states what the numbers were measured on.
func printEnv(out io.Writer) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(out, "env: commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		commit(), runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "env: simulated SGX transition_cost=%v (one way) paging_cost=%v epc=%d usable=%d\n",
		enclave.DefaultTransitionCost, enclave.DefaultPagingCost, enclave.DefaultEPCBytes, enclave.DefaultEPCUsableBytes)
}

// commit reads the checked-out commit from .git in the working
// directory, when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown (" + ref + ")"
}

// printLadder prints the mean-based cost ladder of a traced call.
func printLadder(out io.Writer, l *layerInput) {
	lat, compute, client := l.means()
	tr := l.transitionUS()
	fmt.Fprintf(out, "ladder (mean per traced call, n=%d): execute %.2f us = compute %.2f + client %.2f + app transitions %.2f + residual %.2f us (residual %.1f%% of execute)\n",
		len(l.tr.calls), lat, compute, client, tr, lat-compute-client-tr, 100*(lat-compute-client-tr)/lat)
	fmt.Fprintf(out, "attribution: %d client ops matched no call; %d calls hold GETs that do not fit their outcome\n",
		l.tr.unattributed, l.tr.misattributed())
}

// printSlowest breaks down the slowest traced calls into their spans,
// and says how many overlapped a GC stop-the-world pause.
func printSlowest(out io.Writer, tr *tracer) {
	calls := append([]*callTrace(nil), tr.calls...)
	if len(calls) == 0 {
		return
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].lat > calls[j].lat })
	pauses := gcPauses()
	tail := max(1, int(math.Ceil(float64(len(calls))*0.001)))
	var lat, compute, client time.Duration
	gc := 0
	for _, c := range calls[:tail] {
		lat += c.lat
		compute += c.compute
		client += c.client
		if overlapsPause(c, pauses) {
			gc++
		}
	}
	fmt.Fprintf(out, "slowest 0.1%% (%d calls, >= %.1f us): compute %.1f%%, client %.1f%%, rest of execute %.1f%%; %d overlap a GC pause\n",
		tail, us(calls[tail-1].lat), 100*float64(compute)/float64(lat), 100*float64(client)/float64(lat),
		100*float64(lat-compute-client)/float64(lat), gc)
	for _, c := range calls[:min(10, len(calls))] {
		var ops []string
		for _, o := range c.ops {
			ops = append(ops, fmt.Sprintf("%s@%.0f+%.0f", o.name, us(o.start), us(o.dur)))
		}
		fmt.Fprintf(out, "  slow call %9.1f us %-9v compute %8.1f client %8.1f self %8.1f gc_pause=%v ops=[%s]\n",
			us(c.lat), c.outcome, us(c.compute), us(c.client), us(c.self()), overlapsPause(c, pauses), strings.Join(ops, " "))
	}
}
