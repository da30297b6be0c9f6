package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/workload"
)

// The hot-path benchmark harness: not a paper figure, but the PR-4
// acceptance instrument. It measures the zero-allocation wire path three
// ways and records the results in a JSON report (BENCH_prN.json, one per
// PR that moves these numbers; BENCH_pr4.json is the first of the series)
// that `make bench-compare` replays against:
//
//   - codec: fresh-vs-reused PBIO encode/decode (ns/op, B/op, allocs/op
//     via testing.Benchmark with allocation reporting), for a 1,024-int
//     array and for the 65,536-int bulk array (_64k rows);
//   - roundtrip: a complete binary echo invocation over Loopback, pooled
//     vs the unpooled baseline (bufpool.SetEnabled(false) on the same
//     code path), at the same two sizes;
//   - tcp: real-socket echo at 1/8/64 concurrent callers, one
//     multiplexed connection vs a pool of eight, with throughput and
//     p50/p99 RTT.

// Metric is one benchmark measurement.
type Metric struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// RTT summarizes one transport/concurrency cell.
type RTT struct {
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
}

// TCPCell compares the two pool widths at one concurrency level.
type TCPCell struct {
	Callers int     `json:"callers"`
	Single  RTT     `json:"single_conn"`
	Pooled  RTT     `json:"pooled"`
	Speedup float64 `json:"speedup"`
}

// RoundTrip is the pooled-vs-baseline echo comparison.
type RoundTrip struct {
	Baseline   Metric  `json:"baseline"`
	Pooled     Metric  `json:"pooled"`
	BOpDropPct float64 `json:"b_op_drop_pct"`
}

// HotpathReport is the BENCH_prN.json schema. The 64k members are absent
// from reports recorded before PR 13.
type HotpathReport struct {
	Codec            []Metric  `json:"codec"`
	RoundTrip        RoundTrip `json:"roundtrip"`
	RoundTrip64K     RoundTrip `json:"roundtrip_64k"`
	TCP              []TCPCell `json:"tcp"`
	TCPServiceTimeUs float64   `json:"tcp_service_time_us"`
	SpeedupAt64      float64   `json:"speedup_at_64"`
}

// measure runs fn under testing.Benchmark with allocation accounting.
func measure(name string, fn func(b *testing.B)) Metric {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return Metric{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// RunHotpath measures the suite and writes the JSON report to jsonPath
// ("" skips the file and only prints the tables).
func RunHotpath(w io.Writer, quick bool, jsonPath string) (*HotpathReport, error) {
	rep := &HotpathReport{}
	fmt.Fprintln(w, "== hotpath: zero-allocation wire path ==")

	rep.Codec = append(codecMetrics(smallInts, ""), codecMetrics(bulkInts, "_64k")...)
	fmt.Fprintf(w, "%-28s %12s %10s %10s\n", "codec", "ns/op", "B/op", "allocs/op")
	for _, m := range rep.Codec {
		fmt.Fprintf(w, "%-28s %12.0f %10d %10d\n", m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}

	rep.RoundTrip = roundTripMetrics(smallInts, "")
	rep.RoundTrip64K = roundTripMetrics(bulkInts, "_64k")
	fmt.Fprintf(w, "\n%-28s %12s %10s %10s\n", "echo roundtrip (loopback)", "ns/op", "B/op", "allocs/op")
	for _, rt := range []RoundTrip{rep.RoundTrip, rep.RoundTrip64K} {
		for _, m := range []Metric{rt.Baseline, rt.Pooled} {
			fmt.Fprintf(w, "%-28s %12.0f %10d %10d\n", m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		}
		fmt.Fprintf(w, "B/op drop: %.1f%%\n", rt.BOpDropPct)
	}

	cells, err := tcpMetrics(quick)
	if err != nil {
		return nil, err
	}
	rep.TCP = cells
	rep.TCPServiceTimeUs = float64(tcpServiceTime.Microseconds())
	fmt.Fprintf(w, "\ntcp echo, %v handler service time:\n", tcpServiceTime)
	fmt.Fprintf(w, "%-8s %26s %26s %8s\n", "callers", "pool-of-1 rps/p50/p99us", "pool-of-8 rps/p50/p99us", "speedup")
	for _, c := range rep.TCP {
		fmt.Fprintf(w, "%-8d %10.0f %7.0f %7.0f %10.0f %7.0f %7.0f %7.2fx\n",
			c.Callers, c.Single.ThroughputRPS, c.Single.P50Micros, c.Single.P99Micros,
			c.Pooled.ThroughputRPS, c.Pooled.P50Micros, c.Pooled.P99Micros, c.Speedup)
		if c.Callers == 64 {
			rep.SpeedupAt64 = c.Speedup
		}
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench: write report: %w", err)
		}
		fmt.Fprintf(w, "\nreport written to %s\n", jsonPath)
	}
	return rep, nil
}

// Array sizes of the codec and round-trip rows: the 8 KB payload PR 4's
// pooling was judged on, and the 512 KB bulk array of the paper's Fig. 4/5
// and the repository benchmark's bulk_array_pbio (the top slab class).
const (
	smallInts = 1024
	bulkInts  = 65536
)

// codecMetrics compares per-message codec cost with and without reuse on
// an n-int array; suffix tells the rows of one size from the other's.
func codecMetrics(n int, suffix string) []Metric {
	c := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer()))
	v := workload.IntArray(n)
	wire, err := c.Marshal(v)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 0, len(wire)+64)
	var into idl.Value
	return []Metric{
		measure("encode_fresh"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Marshal(v); err != nil {
					b.Fatal(err)
				}
			}
		}),
		measure("encode_reused"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.AppendMarshal(buf[:0], v); err != nil {
					b.Fatal(err)
				}
			}
		}),
		measure("decode_fresh"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Unmarshal(wire); err != nil {
					b.Fatal(err)
				}
			}
		}),
		measure("decode_reused"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.UnmarshalInto(&into, wire); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

// roundTripMetrics measures a full binary echo invocation of an n-int
// array over Loopback, pooling off (the pre-pooling baseline) then on —
// same binaries, same code path, only bufpool behavior differs.
func roundTripMetrics(n int, suffix string) RoundTrip {
	fs := pbio.NewMemServer()
	spec := echoSpec(2)
	srv := newEchoServer(spec, fs)
	client := newRigClient(spec, &core.Loopback{Server: srv}, fs, core.WireBinary)
	v := workload.IntArray(n)
	call := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := client.Call(context.Background(), "echoArray", nil, soap.Param{Name: "v", Value: v})
			if err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
	}
	// One P, as testing.AllocsPerRun pins it: the rig is one goroutine, and
	// each time the scheduler moves it a pooled slab stays behind in the
	// old P's private slot, which at 6 MiB a slab would decide B/op.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rt RoundTrip
	prev := bufpool.SetEnabled(false)
	rt.Baseline = measure("baseline_unpooled"+suffix, call)
	bufpool.SetEnabled(true)
	rt.Pooled = measure("pooled"+suffix, call)
	bufpool.SetEnabled(prev)
	if rt.Baseline.BytesPerOp > 0 {
		rt.BOpDropPct = 100 * (1 - float64(rt.Pooled.BytesPerOp)/float64(rt.Baseline.BytesPerOp))
	}
	return rt
}

// tcpServiceTime is the simulated handler service time for the TCP
// sweep: a latency-bound service (real handlers do I/O; real networks
// have RTT), so that concurrent calls overlap on the wire. A
// zero-latency loopback echo would instead measure the host's
// single-core codec ceiling, which no pool width can beat.
const tcpServiceTime = time.Millisecond

// tcpMetrics drives a real-socket echo rig — handlers take
// tcpServiceTime each — at each concurrency level, once over a width-1
// pool (every call multiplexed on one connection) and once over a pool
// of eight connections.
func tcpMetrics(quick bool) ([]TCPCell, error) {
	fs := pbio.NewMemServer()
	spec := echoSpec(2)
	srv := core.NewServer(spec, pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("echoArray", func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		time.Sleep(tcpServiceTime)
		return params[0].Value, nil
	})
	ln, err := core.ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	// ~total calls per cell; each caller gets an equal share.
	total := 600
	if quick {
		total = 200
	}
	v := workload.IntArray(256) // 2 KB payload
	var cells []TCPCell
	for _, callers := range []int{1, 8, 64} {
		perCaller := total / callers
		if perCaller < 8 {
			perCaller = 8
		}
		single := core.NewTCPPoolTransport(ln.Addr(), 1)
		singleRTT, err := driveTCP(newRigClient(spec, single, fs, core.WireBinary), callers, perCaller, v)
		single.Close()
		if err != nil {
			return nil, err
		}
		pool := core.NewTCPPoolTransport(ln.Addr(), 8)
		pooledRTT, err := driveTCP(newRigClient(spec, pool, fs, core.WireBinary), callers, perCaller, v)
		pool.Close()
		if err != nil {
			return nil, err
		}
		cell := TCPCell{Callers: callers, Single: singleRTT, Pooled: pooledRTT}
		if singleRTT.ThroughputRPS > 0 {
			cell.Speedup = pooledRTT.ThroughputRPS / singleRTT.ThroughputRPS
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// driveTCP runs callers goroutines, each making perCaller echo calls,
// and aggregates wall-clock throughput and per-call RTT percentiles.
func driveTCP(client *core.Client, callers, perCaller int, v idl.Value) (RTT, error) {
	// Warm connections and formats outside the measured window.
	if _, err := client.Call(context.Background(), "echoArray", nil, soap.Param{Name: "v", Value: v}); err != nil {
		return RTT{}, err
	}
	lat := make([][]time.Duration, callers)
	errs := make([]error, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			own := make([]time.Duration, 0, perCaller)
			for j := 0; j < perCaller; j++ {
				t0 := time.Now()
				resp, err := client.Call(context.Background(), "echoArray", nil, soap.Param{Name: "v", Value: v})
				if err != nil {
					errs[n] = err
					return
				}
				resp.Release()
				own = append(own, time.Since(t0))
			}
			lat[n] = own
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for i := range lat {
		if errs[i] != nil {
			return RTT{}, errs[i]
		}
		all = append(all, lat[i]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Microseconds())
	}
	return RTT{
		ThroughputRPS: float64(callers*perCaller) / wall.Seconds(),
		P50Micros:     pct(0.50),
		P99Micros:     pct(0.99),
	}, nil
}

// CompareHotpath re-measures the suite and checks it against a recorded
// report: allocation regressions on the pooled path fail the comparison
// (timing columns are advisory — CI machines vary too much for ns/op
// gates). A missing report file is an error: run `make bench` first.
func CompareHotpath(w io.Writer, quick bool, jsonPath string) error {
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		return fmt.Errorf("bench: no recorded report (run `make bench` first): %w", err)
	}
	var old HotpathReport
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("bench: parse %s: %w", jsonPath, err)
	}
	cur, err := RunHotpath(w, quick, "")
	if err != nil {
		return err
	}
	var fails []string
	for _, rt := range [][2]RoundTrip{{cur.RoundTrip, old.RoundTrip}, {cur.RoundTrip64K, old.RoundTrip64K}} {
		now, was := rt[0].Pooled, rt[1].Pooled
		if was.Name == "" {
			continue // recorded before this row existed
		}
		if now.AllocsPerOp > 2*was.AllocsPerOp {
			fails = append(fails, fmt.Sprintf("%s roundtrip allocs/op %d > 2x recorded %d",
				now.Name, now.AllocsPerOp, was.AllocsPerOp))
		}
		if was.BytesPerOp > 0 && now.BytesPerOp > 3*was.BytesPerOp/2 {
			fails = append(fails, fmt.Sprintf("%s roundtrip B/op %d > 1.5x recorded %d",
				now.Name, now.BytesPerOp, was.BytesPerOp))
		}
	}
	for _, m := range cur.Codec {
		if strings.Contains(m.Name, "_reused") && m.AllocsPerOp > 0 {
			fails = append(fails, fmt.Sprintf("%s allocates (%d allocs/op), want 0", m.Name, m.AllocsPerOp))
		}
	}
	fmt.Fprintf(w, "\ncompare vs %s: ", jsonPath)
	if len(fails) == 0 {
		fmt.Fprintf(w, "ok (B/op drop now %.1f%%, recorded %.1f%%; speedup@64 now %.2fx, recorded %.2fx)\n",
			cur.RoundTrip.BOpDropPct, old.RoundTrip.BOpDropPct, cur.SpeedupAt64, old.SpeedupAt64)
		return nil
	}
	fmt.Fprintln(w, "REGRESSED")
	for _, f := range fails {
		fmt.Fprintln(w, "  -", f)
	}
	return fmt.Errorf("bench: %d hot-path regression(s)", len(fails))
}
