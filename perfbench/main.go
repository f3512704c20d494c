// Command perfbench is the repository benchmark. It regenerates one
// workload's inputs from a seed, replays them closed-loop from a single
// process, checks every run's output against the frozen reference path,
// and prints the end-to-end metrics (untraced) or the per-layer metrics
// (traced) as one JSON line. See README.md in this directory.
//
//	bash perfbench/run.sh --workload card-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

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

func main() {
	// One CPU for the whole process, garbage collector included. On a
	// shared 2-vCPU VM the host takes a vCPU away now and then; a second
	// busy thread (fleet workers, the concurrent GC) then waits for it, and
	// fleet-grid's runs_per_s spread 0.19 over ten seeds. With one CPU the
	// guest runs the single thread on whichever vCPU it has, and five seeds
	// spread 0.07 at the same throughput.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: card-sweep, disk-sweep, fleet-grid or events-report")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured closed-loop time")
		traced  = flag.Int("trace", 0, "1 records spans, a CPU profile and per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and tables")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	res, err := bench(*name, setup, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench sets the workload up, computes the expected outputs, and measures.
func bench(name string, setup setupFunc, seed int64, budget time.Duration, traced bool, out string) (*result, error) {
	sp := newSpanLog(traced)
	var in *inputs
	var setupS []float64
	var setupSpans [][]span
	for i := 0; i < setupReps; i++ {
		repLog := &spanLog{on: traced, t0: sp.t0}
		debug.FreeOSMemory()
		t0 := time.Now()
		next, err := setup(seed, repLog)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupSpans = append(setupSpans, repLog.spans)
		if in != nil && next.digest != in.digest {
			return nil, fmt.Errorf("set-up is not deterministic: seed %d gave two different inputs", seed)
		}
		in = next
	}
	for _, u := range in.units {
		if err := u.expect(); err != nil {
			return nil, err
		}
	}
	// Return the earlier set-ups' garbage so peak RSS reflects the loop.
	debug.FreeOSMemory()

	res := &result{Metrics: map[string]metric{}}
	if !traced {
		st := closedLoop(in.units, budget, sp)
		res.Attempted, res.Failed = st.attempted, st.failed
		var n int
		res.Metrics, n = endToEnd(st, median(setupS))
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, %d runs, %d run-time samples, %d of %d failed\n",
			name, seed, st.passes, st.runs, n, st.failed, st.attempted)
	} else {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, seed))
		// The untraced half and the traced half replay the same units; the
		// difference per pass is the tracing overhead.
		plain := closedLoop(in.units, budget/2, newSpanLog(false))
		prof, err := os.Create(stem + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
		tr := closedLoop(in.units, budget/2, sp)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		res.Attempted = plain.attempted + tr.attempted
		res.Failed = plain.failed + tr.failed
		share, samples, err := cpuShare(stem + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		if err := writeShareTable(stem+".cpu_share.txt", share, samples); err != nil {
			return nil, err
		}
		for _, m := range shareModules {
			res.Metrics["cpu_share."+m] = metric{share[m], "ratio"}
		}
		overhead := tr.wall.Seconds()/float64(tr.passes) - plain.wall.Seconds()/float64(plain.passes)
		res.Metrics["obs.trace_overhead_s"] = metric{overhead, "s"}
		layerMetrics(res.Metrics, in, sp.spans, setupSpans, tr)
		if err := probeMetrics(res.Metrics, in); err != nil {
			return nil, err
		}
		for _, ss := range setupSpans {
			sp.spans = append(sp.spans, rebase(ss, len(sp.spans))...)
		}
		if err := sp.write(stem + ".spans.json"); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: spans, profile and cpu_share table in %s.*\n", name, seed, stem)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// rebase shifts a span list's ids so it can be appended after n spans.
func rebase(spans []span, n int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += n
		if s.Parent >= 0 {
			s.Parent += n
		}
		out[i] = s
	}
	return out
}

// loopStats is what one closed loop measured.
type loopStats struct {
	wall         time.Duration
	samples      [][]float64 // host ms of each execution, per unit
	passRates    []passRate
	records      int64
	runs         int64
	attempted    int64
	failed       int64
	allocBytes   uint64
	passes       int
	firstFailure error
}

// passRate is one pass's throughput.
type passRate struct {
	records, runs, wall, cpu float64
}

// closedLoop replays whole passes over the units, each execution starting
// when the previous one returns, until the budget is spent (at least one
// pass). Every execution's output is checked; a panic counts as a failure.
func closedLoop(us []*unit, budget time.Duration, sp *spanLog) loopStats {
	st := loopStats{samples: make([][]float64, len(us))}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	run := 0
	for st.passes == 0 || time.Since(start) < budget {
		pass := sp.begin("pass", -1, -1)
		p0, c0 := time.Now(), cpuTime()
		var pr passRate
		for i, u := range us {
			t0 := time.Now()
			err := safeExec(u, sp, pass, run)
			st.samples[i] = append(st.samples[i], float64(time.Since(t0))/1e6)
			st.attempted++
			if err != nil {
				st.failed++
				if st.firstFailure == nil {
					st.firstFailure = err
					fmt.Fprintln(os.Stderr, "perfbench: failed run:", err)
				}
			}
			pr.records += float64(u.records)
			pr.runs += float64(u.runs)
			run++
		}
		pr.wall, pr.cpu = time.Since(p0).Seconds(), (cpuTime() - c0).Seconds()
		st.passRates = append(st.passRates, pr)
		st.records += int64(pr.records)
		st.runs += int64(pr.runs)
		sp.end(pass)
		st.passes++
	}
	st.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return st
}

func safeExec(u *unit, sp *spanLog, parent, run int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", u.name, r)
		}
	}()
	return u.exec(sp, parent, run)
}

// endToEnd derives the end-to-end metrics of an untraced loop. Rates are
// the median over passes, so a transient stall of the host moves one pass,
// not the result. Run times are quantiles over every execution of every
// unit: quantiles over per-unit medians spread wider across runs on
// disk-sweep, whose unit times cluster with a gap near the median.
func endToEnd(st loopStats, setup float64) (map[string]metric, int) {
	rate := func(f func(p passRate) float64) float64 {
		var xs []float64
		for _, p := range st.passRates {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	var times []float64
	for _, s := range st.samples {
		times = append(times, s...)
	}
	sort.Float64s(times)
	return map[string]metric{
		"setup_s":                {setup, "s"},
		"records_per_s":          {rate(func(p passRate) float64 { return p.records / p.wall }), "1/s"},
		"records_per_cpu_s":      {rate(func(p passRate) float64 { return p.records / p.cpu }), "1/s"},
		"runs_per_s":             {rate(func(p passRate) float64 { return p.runs / p.wall }), "1/s"},
		"run_ms_p50":             {quantile(times, 0.50), "ms"},
		"run_ms_p90":             {quantile(times, 0.90), "ms"},
		"peak_rss_mb":            {peakRSSMB(), "MB"},
		"alloc_bytes_per_record": {float64(st.allocBytes) / float64(st.records), "B"},
	}, len(times)
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
