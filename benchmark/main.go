// Command benchmark is the repository benchmark: five named workloads, each
// hosting its servers, router and closed-loop callers in this one process
// over loopback TCP. An untraced run reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics. README.md is the glossary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"soapbinq/internal/core"
)

type metricDef struct {
	name, unit, better string
	bound              float64 // share of the parent's median; 0 for per-layer metrics
}

// endToEnd are the gated metrics, the same list on every workload.
// BENCHMARK.json repeats it; the smoke test holds the two together. Each bound
// is the larger of the issue's figure and about twice the widest spread or
// drift seen between two sets of ten runs on the 2-core box (README.md).
var endToEnd = []metricDef{
	{"calls_per_s", "1/s", "higher", 0.20},
	{"call_p50_us", "us", "lower", 0.25},
	{"call_p95_us", "us", "lower", 0.25},
	{"payload_mb_per_s", "MB/s", "higher", 0.20},
	{"cpu_us_per_call", "us", "lower", 0.25},
	{"alloc_kb_per_call", "KB", "lower", 0.05},
	{"allocs_per_call", "count", "lower", 0.05},
	{"in_target_share", "share", "higher", 0.10},
	{"full_quality_share", "share", "higher", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{name: "pbio_self_us", unit: "us", better: "lower"},
	{name: "xml_self_us", unit: "us", better: "lower"},
	{name: "core_client_self_us", unit: "us", better: "lower"},
	{name: "core_transport_self_us", unit: "us", better: "lower"},
	{name: "core_server_self_us", unit: "us", better: "lower"},
	{name: "front_self_us", unit: "us", better: "lower"},
	{name: "quality_self_us", unit: "us", better: "lower"},
	{name: "handler_self_us", unit: "us", better: "lower"},
	{name: "link_delay_us", unit: "us", better: "lower"},
	{name: "unexplained_us", unit: "us", better: "lower"},
	{name: "attributed_share", unit: "share", better: "higher"},
	{name: "traced_call_p50_us", unit: "us", better: "lower"},
	{name: "untraced_call_p50_us", unit: "us", better: "lower"},
	{name: "trace_overhead_share", unit: "share", better: "lower"},
	{name: "spans_per_call", unit: "count", better: "lower"},
	{name: "pbio_marshal_ns", unit: "ns", better: "lower"},
	{name: "pbio_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "pbio_b_per_call", unit: "B", better: "lower"},
	{name: "pbio_allocs_per_call", unit: "count", better: "lower"},
	{name: "pbio_wire_bytes", unit: "B", better: "lower"},
	{name: "xml_marshal_ns", unit: "ns", better: "lower"},
	{name: "xml_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "xmlenc_marshal_ns", unit: "ns", better: "lower"},
	{name: "xmlenc_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "xml_b_per_call", unit: "B", better: "lower"},
	{name: "xml_allocs_per_call", unit: "count", better: "lower"},
	{name: "xml_wire_bytes", unit: "B", better: "lower"},
	{name: "attempts_per_call", unit: "count", better: "lower"},
	{name: "conns_opened", unit: "count", better: "lower"},
	{name: "server_shed", unit: "count", better: "lower"},
	{name: "server_faults", unit: "count", better: "lower"},
	{name: "front_budget_spent", unit: "count", better: "lower"},
	{name: "front_probe_fails", unit: "count", better: "lower"},
	{name: "quality_flips", unit: "count", better: "lower"},
	{name: "full_quality_calls", unit: "count", better: "higher"},
	{name: "reduced_quality_calls", unit: "count", better: "lower"},
	{name: "in_band_share", unit: "share", better: "higher"},
	{name: "estimator_rtt_ms", unit: "ms", better: "lower"},
	{name: "gc_cycles", unit: "count", better: "lower"},
	{name: "gc_pause_ms", unit: "ms", better: "lower"},
	{name: "heap_inuse_peak_mb", unit: "MB", better: "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// diagnostics are printed beside the metrics and gate nothing.
	diagnostics map[string]metric
}

type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// An untraced run repeats its set-up setupReps times, then on while the
	// set-ups have taken less than setupBudget (and number under
	// maxSetupReps): a sub-millisecond set-up needs many repetitions for a
	// steady median, a 30 ms one cannot afford them.
	setupReps   int
	setupBudget time.Duration
}

const maxSetupReps = 201

// Shares of -seconds. An untraced run warms up, then measures for -seconds.
// A traced run splits -seconds between an untraced window, the traced window
// and the isolated codec timings, each window behind a short warm-up.
const (
	warmShare       = 0.15
	untracedShare   = 0.30
	tracedShare     = 0.50
	tracedWarmShare = 0.05
	codecShare      = 0.10
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp builds the workload's rig and makes one deeply checked call, of the
// workload's first kind whatever the seed.
func setUp(ctx context.Context, def workloadDef, seed uint64, tr *tracer) (*rig, time.Duration, error) {
	start := time.Now()
	r, err := def.build(seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", def.name, err)
	}
	if _, _, err := r.call(ctx, 0, 0, true, false, 0); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("%s: first call: %w", def.name, err)
	}
	return r, time.Since(start), nil
}

// startCycle puts the start of the bandwidth cycle in away from now.
func (r *rig) startCycle(in time.Duration) {
	if r.linkOrigin != nil {
		r.linkOrigin.Store(int64(time.Since(procStart) + in))
	}
}

func runWorkload(ctx context.Context, def workloadDef, o options) (*result, error) {
	if o.trace {
		return runTraced(ctx, def, o)
	}
	var r *rig
	var setups []float64
	for spent := time.Duration(0); len(setups) < o.setupReps || (spent < o.setupBudget && len(setups) < maxSetupReps); {
		if r != nil {
			r.close()
		}
		var took time.Duration
		var err error
		runtime.GC() // every repetition starts from the same heap
		if r, took, err = setUp(ctx, def, o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
	}
	defer r.close()

	w, err := r.warmAndMeasure(ctx, seconds(o.seconds*warmShare), seconds(o.seconds), false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	defer w.release()
	t, err := w.timing()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}

	var inTarget, full int
	for _, samples := range w.samples {
		for _, s := range samples {
			if time.Duration(s.lat) <= def.target {
				inTarget++
			}
			if r.reply(s.kind).full {
				full++
			}
		}
	}
	// Shares are over the calls attempted inside the window; the callers'
	// closing calls came after it.
	inWindow := float64(w.attempted - numCallers)
	calls := float64(w.completed())
	res := &result{
		Correct:   w.failed == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics: map[string]metric{
			"calls_per_s":        {t.callsPerS, "1/s"},
			"call_p50_us":        {t.p50, "us"},
			"call_p95_us":        {t.p95, "us"},
			"payload_mb_per_s":   {t.mbPerS, "MB/s"},
			"cpu_us_per_call":    {float64(w.cpu) / 1e3 / calls, "us"},
			"alloc_kb_per_call":  {float64(w.allocBytes) / 1e3 / calls, "KB"},
			"allocs_per_call":    {float64(w.mallocs) / calls, "count"},
			"in_target_share":    {float64(inTarget) / inWindow, "share"},
			"full_quality_share": {float64(full) / inWindow, "share"},
			"setup_s":            {median(setups), "s"},
		},
		diagnostics: map[string]metric{
			"call_p99_us":       {t.p99, "us"},
			"call_max_us":       {t.max, "us"},
			"samples":           {calls, "count"},
			"min_slice_samples": {float64(t.minSliceSamples), "count"},
			"error_share":       {float64(w.failed) / float64(w.attempted), "share"},
			"target_us":         {float64(def.target) / 1e3, "us"},
		},
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failure: %v\n", def.name, w.firstErr)
	}
	return res, nil
}

// warmAndMeasure warms the rig up and measures one window, with the
// bandwidth cycle (if the rig has a link) starting as the window does.
func (r *rig) warmAndMeasure(ctx context.Context, warm, dur time.Duration, traced bool) (*window, error) {
	r.startCycle(warm)
	if err := r.warmUp(ctx, warm); err != nil {
		return nil, err
	}
	r.startCycle(0)
	return r.measure(ctx, dur, traced)
}

func runTraced(ctx context.Context, def workloadDef, o options) (*result, error) {
	// Untraced window on a rig without the wrappers: the base for the
	// tracing overhead.
	plain, _, err := setUp(ctx, def, o.seed, nil)
	if err != nil {
		return nil, err
	}
	warm := seconds(o.seconds * tracedWarmShare)
	uw, err := plain.warmAndMeasure(ctx, warm, seconds(o.seconds*untracedShare), false)
	plain.close()
	if err != nil {
		return nil, fmt.Errorf("%s: untraced window: %w", def.name, err)
	}
	ut, err := uw.timing()
	untracedFailed := uw.failed
	uw.release()
	if err != nil {
		return nil, fmt.Errorf("%s: untraced window: %w", def.name, err)
	}

	tracedDur := seconds(o.seconds * tracedShare)
	tr, err := newTracer(int(ut.callsPerS*tracedDur.Seconds()*numLayers*1.5) + 4096)
	if err != nil {
		return nil, err
	}
	defer tr.free()
	r, _, err := setUp(ctx, def, o.seed, tr)
	if err != nil {
		return nil, err
	}
	w, err := r.warmAndMeasure(ctx, warm, tracedDur, true)
	counters := r.counters()
	r.close()
	if err != nil {
		return nil, fmt.Errorf("%s: traced window: %w", def.name, err)
	}
	defer w.release()
	t, err := w.timing()
	if err != nil {
		return nil, fmt.Errorf("%s: traced window: %w", def.name, err)
	}

	spans := resolveParents(tr.recorded())
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", def.name, err)
		}
	}
	timedOps := 0
	for _, k := range r.kinds {
		timedOps += 2 * (len(k.params) + len(k.replies))
	}
	kinds, err := measureCodec(r, seconds(o.seconds*codecShare)/time.Duration(timedOps))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	costs := make([]codecCost, len(kinds))
	for i, k := range kinds {
		costs[i] = k.perCall()
	}
	b, err := layerBreakdown(spans, costs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}

	var fullCalls, reducedCalls, inBand int
	calls := float64(w.completed())
	seen := make([]int, len(kinds))
	for _, samples := range w.samples {
		for _, s := range samples {
			seen[s.kind]++
			rep := r.reply(s.kind)
			if rep.full {
				fullCalls++
			} else {
				reducedCalls++
			}
			// Without a policy the rule is the empty interval.
			if rtt := time.Duration(s.rtt); rtt >= rep.rule.Lo && rtt < rep.rule.Hi {
				inBand++
			}
		}
	}
	avg := averageCall(kinds, seen)

	m := map[string]float64{
		"core_client_self_us":    b.self[colCoreClient],
		"core_transport_self_us": b.self[colTransport],
		"core_server_self_us":    b.self[colCoreServer],
		"front_self_us":          b.self[colFront],
		"quality_self_us":        b.self[colQuality],
		"handler_self_us":        b.self[colHandler],
		"link_delay_us":          b.self[colLink],
		"unexplained_us":         b.p50 - b.named(),
		"attributed_share":       b.named() / b.p50,
		"traced_call_p50_us":     t.p50,
		"untraced_call_p50_us":   ut.p50,
		"trace_overhead_share":   1 - t.callsPerS/ut.callsPerS,
		"spans_per_call":         float64(len(spans)) / calls,
		"attempts_per_call":      float64(w.attempts) / float64(w.attempted),
		"in_band_share":          float64(inBand) / calls,
		"full_quality_calls":     float64(fullCalls),
		"reduced_quality_calls":  float64(reducedCalls),
		"gc_cycles":              float64(w.gcCycles),
		"gc_pause_ms":            float64(w.gcPause) / 1e6,
		"heap_inuse_peak_mb":     float64(w.heapPeak) / 1e6,
	}
	// The codec that did the work gets the figures; the other one did none.
	codec, idle := "pbio", "xml"
	if r.wire != core.WireBinary {
		codec, idle = idle, codec
	}
	perCall := avg.marshal.plus(avg.unmarshal) // request and reply are each encoded once and decoded once
	for suffix, v := range map[string]float64{
		"_self_us":         b.self[colCodec],
		"_marshal_ns":      avg.marshal.ns,
		"_unmarshal_ns":    avg.unmarshal.ns,
		"_b_per_call":      perCall.bytes,
		"_allocs_per_call": perCall.allocs,
		"_wire_bytes":      avg.wireBytes,
	} {
		m[codec+suffix], m[idle+suffix] = v, 0
	}
	m["xmlenc_marshal_ns"] = avg.xmlMarshal.ns
	m["xmlenc_unmarshal_ns"] = avg.xmlUnmarshal.ns
	for k, v := range counters {
		m[k] = v
	}

	res := &result{
		Correct:     w.failed == 0 && untracedFailed == 0,
		Attempted:   w.attempted,
		Failed:      w.failed,
		Metrics:     make(map[string]metric, len(perLayer)),
		diagnostics: map[string]metric{"spans_dropped": {float64(tr.dropped.Load()), "count"}, "traced_calls": {float64(b.calls), "count"}},
	}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not computed", def.name, d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}

// counters reads the layers' own counts off a rig that has just run.
func (r *rig) counters() map[string]float64 {
	c := map[string]float64{
		"conns_opened": 0, "server_shed": 0, "server_faults": 0,
		"front_budget_spent": 0, "front_probe_fails": 0,
		"quality_flips": 0, "estimator_rtt_ms": 0,
	}
	for _, l := range r.listeners {
		c["conns_opened"] += float64(l.accepted.Load())
	}
	for _, s := range r.servers {
		st := s.Stats()
		c["server_shed"] += float64(st.Shed)
		c["server_faults"] += float64(st.Faults)
	}
	if r.front != nil {
		snap := r.front.DebugSnapshot()
		c["front_budget_spent"] = frontRetryBudget - snap.Budget
		for _, b := range snap.Backends {
			c["front_probe_fails"] += float64(b.ProbeFails)
		}
	}
	if r.manager != nil {
		for _, cl := range r.manager.DebugSnapshot().Clients {
			c["quality_flips"] += float64(cl.Selector.Switches)
		}
		for _, qc := range r.qclients {
			c["estimator_rtt_ms"] += float64(qc.Estimator.Snapshot().Estimate) / 1e6 / float64(len(r.qclients))
		}
	}
	return c
}

// listed is the metric list a run in this mode reports.
func listed(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printResult(w io.Writer, name string, res *result, defs []metricDef) {
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, d.name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(res.diagnostics))
	for k := range res.diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.diagnostics[k]
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, k, m.Value, m.Unit)
	}
}

// summary is what a run of several workloads prints last and writes to -out.
type summary struct {
	Seed          uint64             `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	Workloads     map[string]*result `json:"workloads"`
	FrontHopRatio *float64           `json:"front_hop_ratio,omitempty"`
	Claim         *string            `json:"claim"` // this program measures; it claims nothing
}

// runChild runs one workload in a process of its own, as the driver does,
// passes its metric lines on to out and returns its final line. A workload
// measured late in a long-lived process inherits the runtime's memory state
// from the ones before it: as the eighth of a process, bulk_array_pbio's
// call_p95_us read a third higher, twice out of two.
func runChild(ctx context.Context, out io.Writer, def workloadDef, o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", def.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.traceOut != "" {
		args = append(args, "-traceout", o.traceOut+"."+def.name)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	lines, last, _ := cutLast(bytes.TrimSpace(stdout), '\n')
	if _, err := out.Write(append(lines, '\n')); err != nil {
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("%s: final line: %w", def.name, err)
	}
	return res, nil
}

// cutLast cuts b around the last sep.
func cutLast(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.LastIndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return nil, b, false
}

func runSet(ctx context.Context, out io.Writer, defs []workloadDef, o options) (*summary, error) {
	s := &summary{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Workloads: map[string]*result{}}
	for _, def := range defs {
		res, err := runChild(ctx, out, def, o)
		if err != nil {
			return nil, err
		}
		s.Workloads[def.name] = res
	}
	mux, front := s.Workloads["small_struct_mux"], s.Workloads["small_struct_front"]
	if mux != nil && front != nil && !o.trace {
		ratio := front.Metrics["call_p50_us"].Value / mux.Metrics["call_p50_us"].Value
		s.FrontHopRatio = &ratio
		fmt.Fprintf(out, "small_struct_front front_hop_ratio %.6g ratio\n", ratio)
	}
	return s, nil
}

// selfCheck runs the full set twice, the second time in reverse order, and
// reports every end-to-end metric whose two values differ by more than its
// bound.
func selfCheck(ctx context.Context, out io.Writer, o options) (bool, error) {
	reversed := make([]workloadDef, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	// A discarded lead-in: the first process started on an idle machine sets
	// up a third faster than any later one, which is the machine, not the
	// order.
	leadIn := o
	leadIn.seconds = 5
	if _, err := runChild(ctx, io.Discard, workloads[0], leadIn); err != nil {
		return false, err
	}
	a, err := runSet(ctx, io.Discard, workloads, o)
	if err != nil {
		return false, err
	}
	b, err := runSet(ctx, io.Discard, reversed, o)
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.Workloads[w.name].Metrics[d.name].Value, b.Workloads[w.name].Metrics[d.name].Value
			spread := math.Abs(va-vb) / ((va + vb) / 2)
			verdict := "ok"
			if spread > d.bound {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(out, "%s %s %.6g %.6g %s spread %.4f bound %.2f %s\n", w.name, d.name, va, vb, d.unit, spread, d.bound, verdict)
		}
		if !a.Workloads[w.name].Correct || !b.Workloads[w.name].Correct {
			fmt.Fprintf(out, "%s had failed calls\n", w.name)
			ok = false
		}
	}
	return ok, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs, mix order and bandwidth schedule")
	secs := fs.Float64("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("traceout", "", "with -trace 1, write the spans as JSON lines to this file (one file per workload, suffixed with its name, when running all)")
	outPath := fs.String("out", "", "also write the final JSON to this file")
	check := fs.Bool("selfcheck", false, "run every workload twice in alternating order and fail if an end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-traceout file] [-out file] [-selfcheck]")
		return 2
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, traceOut: *traceOut, setupReps: 11, setupBudget: 300 * time.Millisecond}
	ctx := context.Background()

	if *check {
		o.trace = false
		ok, err := selfCheck(ctx, stdout, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	var final any
	if *name == "all" {
		s, err := runSet(ctx, stdout, workloads, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		final = s
	} else {
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(ctx, def, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		printResult(stdout, def.name, res, listed(o.trace))
		final = res
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
