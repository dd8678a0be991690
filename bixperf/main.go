// Command bixperf is the serve-level benchmark of bixstore. For one
// workload it generates data and a query stream from a seed, builds the
// index with a bixstore binary, starts `bixstore serve`, drives it over
// HTTP in a closed loop, checks every answer against a brute-force count,
// and prints the end-to-end metrics. With -trace 1 it instead replays the
// stream in-process through each layer's public functions and prints the
// per-layer metrics (see README.md).
//
// Usage (normally through run.sh, which builds both binaries):
//
//	bixperf -workload tbl-roaring-lex-1m -seed 1 -seconds 45 -trace 0 -bixstore ./bixstore -work ./work
//	bixperf -workload idx-cached-64k -seed 1 -repeat 5 ...   # median and quartiles of 5 runs
//
// The last line of standard output of a single run is one JSON object
// with the keys correct, attempted, failed and metrics. A run with a wrong
// answer still prints it, then exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runSeconds is the measured duration of one run; BENCHMARK.json's
// run_seconds must equal it (checked by TestRunSecondsMatchesBenchmark).
const runSeconds = 45

// config is one benchmark run.
type config struct {
	spec     *spec
	seed     int64
	dur      time.Duration
	rows     int // 0 = the workload's size
	bixstore string
	work     string
	out      io.Writer // human-readable report lines
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// raw holds the timing metrics before scaling to reference speed,
	// for the repeat summary.
	raw map[string]float64
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload name (tbl-raw-1m, tbl-roaring-lex-1m, idx-cached-64k)")
		seed     = flag.Int64("seed", 1, "workload seed: data and query stream derive only from it")
		seconds  = flag.Int("seconds", runSeconds, "measured closed-loop duration (BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		repeat   = flag.Int("repeat", 0, "run N times with the same seed and print each metric's median and quartiles")
		vary     = flag.Bool("vary-seed", false, "with -repeat, run seeds seed..seed+N-1 instead of one seed N times")
		bixstore = flag.String("bixstore", "", "bixstore binary built from the tree under test (required)")
		work     = flag.String("work", ".bench_build/work", "scratch directory for inputs, indexes and spans")
	)
	flag.Parse()
	s, err := lookupSpec(*wl)
	if err == nil && *bixstore == "" {
		err = errors.New("-bixstore is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bixperf:", err)
		os.Exit(2)
	}
	if err := pinSelf(); err != nil {
		fmt.Fprintln(os.Stderr, "bixperf:", err)
		os.Exit(1)
	}
	cfg := config{
		spec: s, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		bixstore: *bixstore, work: *work, out: os.Stdout,
	}
	if *repeat > 0 {
		err = repeatRuns(cfg, *repeat, *vary, *trace == 1)
	} else {
		var res *result
		var line []byte
		if res, err = run(cfg, *trace == 1); err == nil {
			line, err = json.Marshal(res)
		}
		if err == nil {
			fmt.Println(string(line))
			if !res.Correct {
				err = fmt.Errorf("%d of %d queries failed", res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bixperf:", err)
		os.Exit(1)
	}
}

func run(cfg config, traced bool) (*result, error) {
	if traced {
		return runTraced(cfg)
	}
	return runE2E(cfg)
}

// session is the per-run state shared by both modes: the dataset, the
// input file on disk and the index directory the server serves.
type session struct {
	cfg   config
	d     *dataset
	dir   string
	input string
	index string
	log   *os.File
}

func newSession(cfg config) (*session, error) {
	rows := cfg.rows
	if rows == 0 {
		rows = cfg.spec.rows
	}
	ss := &session{cfg: cfg, d: newDataset(cfg.spec, cfg.seed, rows)}
	ss.dir = filepath.Join(cfg.work, cfg.spec.name)
	if err := os.RemoveAll(ss.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(ss.dir, 0o755); err != nil {
		return nil, err
	}
	ss.input = filepath.Join(ss.dir, "input.txt")
	if cfg.spec.table {
		ss.input = filepath.Join(ss.dir, "input.csv")
	}
	ss.index = filepath.Join(ss.dir, "index")
	if err := ss.d.writeInput(ss.input); err != nil {
		return nil, err
	}
	var err error
	ss.log, err = os.Create(filepath.Join(ss.dir, "serve.log"))
	return ss, err
}

func (ss *session) close() error { return ss.log.Close() }

// setup builds the index from the input file and boots the server,
// timing from the start of the build to the first /readyz 200.
func (ss *session) setup() (*server, time.Duration, error) {
	if err := os.RemoveAll(ss.index); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := buildIndex(ss.cfg.bixstore, ss.cfg.spec, ss.input, ss.index); err != nil {
		return nil, 0, err
	}
	srv, err := startServer(ss.cfg.bixstore, ss.cfg.spec, ss.index, ss.log)
	return srv, time.Since(t0), err
}

// warmup drives the server briefly so page cache, connection pool and
// the server's heap reach steady state before anything is timed.
func (ss *session) warmup(srv *server) loadResult {
	return drive(srv.base, ss.d.stream, ss.cfg.spec.conns, min(max(ss.cfg.dur/4, 500*time.Millisecond), 3*time.Second), nil)
}

func (ss *session) printf(format string, args ...any) {
	fmt.Fprintf(ss.cfg.out, format, args...)
}

// runE2E is the untraced run: setups, warmup, then the measured closed
// loop; every end-to-end metric comes from here.
func runE2E(cfg config) (*result, error) {
	ss, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	s := cfg.spec
	var (
		setupS, setupRaw []float64
		srv              *server
	)
	for k := 0; k < s.setups; k++ {
		if srv != nil {
			srv.stop()
		}
		// The kernel is timed right before and after each setup, which is
		// scaled to reference speed by their mean (speed.go).
		before := refMedian(5)
		var took time.Duration
		if srv, took, err = ss.setup(); err != nil {
			return nil, err
		}
		ref := (before + refMedian(5)) / 2
		setupRaw = append(setupRaw, took.Seconds())
		setupS = append(setupS, took.Seconds()*float64(refNominal)/float64(ref))
	}
	warm := ss.warmup(srv)
	var (
		peaks   []float64
		rssErr  error
		rssDone = make(chan struct{})
		stopRSS = make(chan struct{})
	)
	go func() {
		defer close(rssDone)
		peaks, rssErr = srv.windowPeaks(stopRSS)
	}()
	meas := drive(srv.base, ss.d.stream, s.conns, cfg.dur, nil)
	close(stopRSS)
	<-rssDone
	srv.stop()
	if rssErr != nil {
		return nil, fmt.Errorf("server peak resident set: %w", rssErr)
	}
	ixBytes, err := dirBytes(ss.index)
	if err != nil {
		return nil, err
	}

	lat := micros(meas.scaled)
	p99 := percentile(lat, 0.99)
	above := 0
	for _, l := range lat {
		if l > p99 {
			above++
		}
	}
	attempted := warm.attempted + meas.attempted
	failed := warm.failed + meas.failed
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	res.set("setup_s", median(setupS), "s")
	res.set("qps", float64(meas.attempted)/meas.scaledElapsed.Seconds(), "1/s")
	res.set("latency_p50_ms", percentile(lat, 0.5)/1e3, "ms")
	res.set("latency_p99_ms", p99/1e3, "ms")
	res.set("success_frac", 1-float64(failed)/float64(attempted), "ratio")
	res.set("index_bytes_per_row", float64(ixBytes)/float64(ss.d.rows), "B")
	res.set("server_peak_rss_mb", median(peaks), "MiB")

	ss.printf("workload %s seed %d: %d rows, %d connections, closed loop, %v measured after %v warmup\n",
		s.name, cfg.seed, ss.d.rows, s.conns, meas.elapsed.Round(time.Millisecond), warm.elapsed.Round(time.Millisecond))
	rawLat := micros(meas.latencies)
	res.raw = map[string]float64{
		"setup_s":        median(setupRaw),
		"qps":            float64(meas.attempted) / meas.elapsed.Seconds(),
		"latency_p50_ms": percentile(rawLat, 0.5) / 1e3,
		"latency_p99_ms": percentile(rawLat, 0.99) / 1e3,
	}
	ss.printf("raw, before scaling to reference speed: setup_s %.4f, qps %.6g, latency_p50_ms %.6g, latency_p99_ms %.6g\n",
		res.raw["setup_s"], res.raw["qps"], res.raw["latency_p50_ms"], res.raw["latency_p99_ms"])
	ss.printf("reference kernel: median %v in the loop (%v at reference speed)\n", meas.refMedian, refNominal)
	ss.printf("setup_s per setup: %.4f\n", setupS)
	ss.printf("server peak resident set per %v window, MiB: %.1f\n", rssWindow, peaks)
	ss.printf("latency samples: %d (%d above p99)\n", len(lat), above)
	if above < 10 {
		ss.printf("warning: fewer than 10 samples above p99; run longer for a trustworthy tail\n")
	}
	ss.printf("failed_frac %.6f ratio (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	if warm.firstFailure != "" || meas.firstFailure != "" {
		ss.printf("first failure: %s%s\n", warm.firstFailure, meas.firstFailure)
	}
	printMetrics(ss.cfg.out, res)
	return res, nil
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
