package soapbinq

import (
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"soapbinq/internal/obs"
	"soapbinq/internal/workload"
)

// poolCounters reads the buffer pool's traffic off the metrics exposition
// (bufpool keeps the handles to itself).
func poolCounters(t *testing.T) (gets, hits, puts int) {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, value, _ := strings.Cut(line, " ")
		switch name {
		case "soapbinq_pool_buffer_gets_total":
			gets, _ = strconv.Atoi(value)
		case "soapbinq_pool_buffer_hits_total":
			hits, _ = strconv.Atoi(value)
		case "soapbinq_pool_buffer_puts_total":
			puts, _ = strconv.Atoi(value)
		}
	}
	return gets, hits, puts
}

// TestBulkEchoStaysInThePools is the buffer-ownership regression test for
// the binary envelope: a 65,536-int echo (512 KB each way, the top value
// slab class) over Loopback, pooling on. The envelope is built in one
// pooled buffer of its exact size, so at steady state every buffer taken
// is one that was put back (gets = hits = puts) and a call allocates a
// few KB of bookkeeping, not the megabytes of a grown envelope or a
// missed slab.
func TestBulkEchoStaysInThePools(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random")
	}
	fs := NewMemFormatServer()
	spec := MustServiceSpec("BulkGate",
		&OpDef{
			Name:   "echo",
			Params: []ParamSpec{{Name: "v", Type: workload.IntArrayType()}},
			Result: workload.IntArrayType(),
		},
	)
	srv := NewEndpoint(fs).NewServer(spec)
	srv.MustHandle("echo", func(_ *CallCtx, params []Param) (Value, error) {
		return params[0].Value, nil
	})
	client := NewEndpoint(fs).NewClient(spec, &Loopback{Server: srv}, WireBinary)
	v := workload.IntArray(65536)
	echo := func() {
		resp, err := client.Call(context.Background(), "echo", nil, Param{Name: "v", Value: v})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(resp.Value.List); n != 65536 {
			t.Fatalf("echo returned %d elements", n)
		}
		resp.Release()
	}
	// sync.Pool gives back what was put only while no collection runs and
	// the caller stays on the P it put from.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		echo()
	}
	const calls = 50
	var before, after runtime.MemStats
	gets0, hits0, puts0 := poolCounters(t)
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		echo()
	}
	runtime.ReadMemStats(&after)
	gets, hits, puts := poolCounters(t)
	gets, hits, puts = gets-gets0, hits-hits0, puts-puts0
	if gets == 0 || gets != hits || gets != puts {
		t.Errorf("%d calls: %d buffers taken, %d of them pooled, %d put back; want all equal", calls, gets, hits, puts)
	}
	const maxBytes = 4 << 10
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > maxBytes {
		t.Errorf("bulk echo allocates %d B/call, want <= %d", perCall, maxBytes)
	}
}
