// Command soapbench regenerates the tables and figures of the paper's
// evaluation (Section IV).
//
// Usage:
//
//	soapbench -list             # enumerate experiments
//	soapbench -exp fig8         # run one experiment
//	soapbench -all              # run everything
//	soapbench -all -quick       # fast smoke pass (fewer sizes/reps)
//
// -timeout puts a per-call deadline on every benchmark invocation and
// -retries re-sends on transient transport errors (the echo workloads
// are side-effect free, so repeats are safe). Both default to off, which
// keeps the measured path identical to the paper's.
//
// Chaos mode replays a named fault scenario against a real-socket rig
// with the full resilience stack (retry policy, circuit breaker, load
// shedding, fault-pressure quality degradation) and reports shed /
// broken-circuit / degraded counts alongside RTT percentiles:
//
//	soapbench -faults list      # enumerate scenarios
//	soapbench -faults mixed -seed 42
//
// The same scenario and seed always reproduce the identical fault
// injection sequence.
//
// Hot-path mode measures the zero-allocation wire path (codec reuse,
// pooled buffers, multiplexed TCP pool); -benchout records the report
// (`make bench PR=N` names it BENCH_prN.json) and -compare replays the
// suite against a recorded report, failing on allocation regressions:
//
//	soapbench -hotpath                                            # measure, print
//	soapbench -hotpath -benchout BENCH_pr13.json                  # and record
//	soapbench -hotpath -quick -compare -benchout BENCH_pr13.json  # regression gate
//	soapbench -hotpath -cpuprofile cpu.out                        # with pprof profiles
//
// Observability: -obs addr serves the debug mux (/metrics,
// /debug/quality, /debug/pprof) on addr for the duration of any run,
// with invocation tracing enabled — watch a chaos replay live through
// an operator's eyes. -obssmoke runs the self-contained observability
// smoke test (an instrumented echo rig scraped end to end) and exits
// non-zero if any expected metric family or correlated span is missing:
//
//	soapbench -faults mixed -obs localhost:8090
//	soapbench -obssmoke
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"soapbinq/internal/bench"
	"soapbinq/internal/core"
	"soapbinq/internal/faultinject"
	"soapbinq/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soapbench:", err)
		os.Exit(1)
	}
}

func run() error {
	list := flag.Bool("list", false, "list experiments")
	exp := flag.String("exp", "", "experiment ID to run")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced sizes and repetitions")
	timeout := flag.Duration("timeout", 0, "per-call deadline for every benchmark invocation (0 = none)")
	retries := flag.Int("retries", 0, "retries on transient transport errors (echo workloads are side-effect free)")
	faults := flag.String("faults", "", "replay a named fault scenario (\"list\" to enumerate)")
	seed := flag.Int64("seed", 1, "fault scenario seed (same scenario+seed = same injection sequence)")
	hotpath := flag.Bool("hotpath", false, "measure the zero-allocation wire path")
	benchout := flag.String("benchout", "", "hot-path report path: written, or with -compare read (\"\" = print only)")
	compare := flag.Bool("compare", false, "with -hotpath: compare against the recorded report instead of rewriting it")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit")
	obsAddr := flag.String("obs", "", "serve the observability debug mux (/metrics, /debug/quality, /debug/pprof) on this address for the run")
	obssmoke := flag.Bool("obssmoke", false, "run the observability smoke test (instrumented rig, scraped end to end)")
	frontDemo := flag.Bool("front", false, "run the fault-tolerant router demo: ramp callers through soapfront across 4 backends with a mid-ramp backend kill")
	frontCallers := flag.Int("frontcallers", 1024, "peak concurrent callers for -front")
	flag.Parse()

	if *obsAddr != "" {
		ln, err := obs.Serve(*obsAddr)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "soapbench: observability at http://%s/metrics and /debug/quality\n", ln.Addr())
	}
	if *obssmoke {
		return bench.RunObsSmoke(os.Stdout)
	}
	if *frontDemo {
		return bench.RunFront(os.Stdout, *frontCallers, *quick)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "soapbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "soapbench: memprofile:", err)
			}
		}()
	}

	if *hotpath {
		if *compare {
			return bench.CompareHotpath(os.Stdout, *quick, *benchout)
		}
		_, err := bench.RunHotpath(os.Stdout, *quick, *benchout)
		return err
	}

	if *faults == "list" {
		for _, s := range faultinject.Scenarios() {
			fmt.Printf("%-10s %s\n", s.Name, s.Desc)
		}
		return nil
	}
	if *faults != "" {
		return bench.RunChaos(os.Stdout, *faults, *seed, *quick)
	}

	if *timeout > 0 || *retries > 0 {
		bench.SetCallPolicy(&core.CallPolicy{
			Timeout:    *timeout,
			MaxRetries: *retries,
			// The bench spec declares no idempotency, but every workload
			// is a pure echo; retries are safe by construction.
			RetryNonIdempotent: *retries > 0,
		})
	}

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	case *all:
		for _, e := range bench.All() {
			if err := bench.Run(e.ID, os.Stdout, *quick); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Println()
		}
		return nil
	case *exp != "":
		return bench.Run(*exp, os.Stdout, *quick)
	default:
		flag.Usage()
		return fmt.Errorf("one of -list, -exp, -all, -faults, -hotpath is required")
	}
}
