// Command byzbench is the byzcons benchmark: it serves one workload through
// the public Open/OpenFleet/ProposeAsync API from a single generator
// goroutine, checks every decision against the submitted bytes, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer split) as one
// JSON line.
//
//	bash benchmark/run.sh --workload fleet-tcp --seed 1 --seconds 32 --trace 0
//
// A run opens the workload's deployment nine times (setup_s is the median
// time from Open until a warm-up proposal decided) and measures the last one
// in six rounds of two segments each:
//
//   - open loop: a sixth of 0.5·seconds·lightRate Poisson arrivals drawn
//     from the seed, each timed from its due time (light_p50_ms over all
//     rounds' arrivals);
//   - closed loop: a sixth of the remaining 0.5·seconds with a fixed
//     number of proposals kept outstanding (values_per_s over each shard's
//     steady-state cycles and cpu_ms_per_value, each the median of the
//     rounds' figures; bits per value and the per-layer counters over all
//     rounds).
//
// The record line also prints each phase's latency tail, the highest of
// p99, p95 and p90 with at least ten samples beyond it, next to its sample
// count. The tails are not end-to-end metrics: on a shared host the tenth
// slowest of a few hundred decisions moves with every hypervisor pause,
// more from run to run than any bound a later change could be held to.
//
// A traced run first repeats the untraced measurement, then measures again
// with a CPU profile of the closed loop and a counter read at every cycle
// boundary; it reports the per-layer metrics, the tracing overhead on each
// end-to-end metric, and writes its spans (opens, proposals, cycles with
// their counter reads) to .bench_build/spans/.
//
// The line before the result carries the host record (CPU count,
// GOMAXPROCS, Go version, CPU model, steal ticks over the run), the
// workload's pinned settings, the sample counts behind each latency and
// the open-loop generator's lateness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type record struct {
	Host      host      `json:"host"`
	Settings  settings  `json:"settings"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Untraced  *summary  `json:"untraced"`
	TracedRun *summary  `json:"tracedRun,omitempty"`
	EndToEnd  metricSet `json:"endToEnd"`
	SpanFile  string    `json:"spanFile,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 32, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced pass")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: byzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "byzbench:", err)
		os.Exit(1)
	}
}

func run(w workload, seed uint64, seconds float64, traced bool) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	rec := record{Host: readHost(), Settings: w.settings(), Seed: seed, Seconds: seconds, Traced: traced}
	stealStart := stealTicks()

	// Each pass must finish well inside the 180 s a run may take, traced
	// runs making two.
	passCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Duration(2*seconds*float64(time.Second))+30*time.Second)
	}
	ctx, cancel := passCtx()
	base, err := runPass(ctx, w, seed, seconds, false)
	cancel()
	if err != nil {
		return err
	}
	e2e, sum := base.endToEnd()
	rec.Untraced, rec.EndToEnd = sum, e2e
	res := result{Correct: len(sum.Problems) == 0, Attempted: sum.Attempted, Failed: sum.Failed, Metrics: e2e}

	if traced {
		ctx, cancel := passCtx()
		tp, err := runPass(ctx, w, seed, seconds, true)
		cancel()
		if err != nil {
			return err
		}
		tracedE2E, tsum := tp.endToEnd()
		layer, err := tp.perLayer(tracedE2E, e2e)
		if err != nil {
			return err
		}
		rec.TracedRun = tsum
		if rec.SpanFile, err = tp.writeSpans(seed); err != nil {
			return err
		}
		res = result{
			Correct:   res.Correct && len(tsum.Problems) == 0,
			Attempted: res.Attempted + tsum.Attempted,
			Failed:    res.Failed + tsum.Failed,
			Metrics:   layer,
		}
	}
	rec.Host.StealTicks = stealTicks() - stealStart

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(rec); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	if err := out.Encode(res); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "byzbench: output check failed; see the record's problems")
	}
	return nil
}
