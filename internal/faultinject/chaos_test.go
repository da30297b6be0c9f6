// End-to-end chaos tests: every resilience mechanism exercised over
// real sockets (httptest HTTP and framed TCP) against injected faults.
// All plans are scripted or seeded, so each test's injection sequence
// is deterministic; run under -race via `make chaos`.
package faultinject_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"net/http/httptest"

	"soapbinq/internal/core"
	"soapbinq/internal/faultinject"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
)

// chaosSpec is the little echo service the chaos tests run against.
func chaosSpec() *core.ServiceSpec {
	return core.MustServiceSpec("ChaosTest",
		&core.OpDef{
			Name:       "echo",
			Params:     []soap.ParamSpec{{Name: "v", Type: idl.Int()}},
			Result:     idl.Int(),
			Idempotent: true,
		},
	)
}

// newChaosServer builds an echo server counting handler invocations.
func newChaosServer(fs *pbio.MemServer) (*core.Server, *atomic.Int64) {
	srv := core.NewServer(chaosSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	var handled atomic.Int64
	srv.MustHandle("echo", func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		handled.Add(1)
		return params[0].Value, nil
	})
	return srv, &handled
}

func newChaosClient(fs *pbio.MemServer, transport core.Transport) *core.Client {
	return core.NewClient(chaosSpec(), transport, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)
}

func callEcho(c *core.Client, v int64) error {
	resp, err := c.Call(context.Background(), "echo", nil, soap.Param{Name: "v", Value: idl.IntV(v)})
	if err != nil {
		return err
	}
	if resp.Value.Int != v {
		return errors.New("echo value mismatch")
	}
	return nil
}

// TestChaosBreakerLifecycle drives the full circuit-breaker state
// machine over a real HTTP socket: injected resets trip it, further
// calls fast-fail with the unavailable-family fault, and after the
// cooldown a half-open probe against the now-healthy endpoint closes
// it again.
func TestChaosBreakerLifecycle(t *testing.T) {
	fs := pbio.NewMemServer()
	srv, _ := newChaosServer(fs)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	plan := faultinject.Script(
		faultinject.Reset, faultinject.Reset, faultinject.Reset, faultinject.Reset,
	)
	breaker := core.NewBreaker(core.BreakerConfig{
		Window: 8, MinSamples: 4, TripRatio: 0.5, Cooldown: 50 * time.Millisecond,
	})
	client := newChaosClient(fs, &faultinject.Transport{
		Inner: &core.HTTPTransport{URL: ts.URL, Client: ts.Client()},
		Plan:  plan,
	})
	client.Breaker = breaker

	// Four resets fill the window to MinSamples at 100% failure: trip.
	for i := 0; i < 4; i++ {
		if err := callEcho(client, int64(i)); err == nil {
			t.Fatalf("call %d should have failed under an injected reset", i)
		}
	}
	if got := breaker.State(); got != core.BreakerOpen {
		t.Fatalf("after 4 resets breaker is %v, want open", got)
	}
	if breaker.Opens() != 1 {
		t.Fatalf("Opens() = %d, want 1", breaker.Opens())
	}

	// While open, calls fast-fail with the unavailable family and never
	// reach the transport (the plan sees no new draws).
	drawsBefore := plan.Calls()
	err := callEcho(client, 99)
	if !errors.Is(err, soap.ErrUnavailable) {
		t.Fatalf("fast-fail error = %v, want errors.Is soap.ErrUnavailable", err)
	}
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultCodeBreakerOpen {
		t.Fatalf("fast-fail fault = %v, want code %s", err, soap.FaultCodeBreakerOpen)
	}
	if plan.Calls() != drawsBefore {
		t.Error("fast-failed call reached the transport")
	}
	if breaker.FastFails() == 0 {
		t.Error("FastFails() = 0 after a fast-fail")
	}

	// After the cooldown the half-open probe hits the healthy endpoint
	// (script exhausted) and the breaker closes.
	time.Sleep(60 * time.Millisecond)
	if err := callEcho(client, 100); err != nil {
		t.Fatalf("probe call failed: %v", err)
	}
	if got := breaker.State(); got != core.BreakerClosed {
		t.Fatalf("after successful probe breaker is %v, want closed", got)
	}
	if err := callEcho(client, 101); err != nil {
		t.Fatalf("post-recovery call failed: %v", err)
	}
}

// TestChaosShedBusyRetry overloads a bounded server over HTTP: excess
// requests are shed with Server.Busy + Retry-After, and the retry
// policy (which honors the hint and waives the idempotency gate for
// shed requests) still brings every call home.
func TestChaosShedBusyRetry(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := core.NewServer(chaosSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MaxInFlight = 1
	srv.RetryAfterHint = 2 * time.Millisecond
	srv.MustHandle("echo", func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		time.Sleep(5 * time.Millisecond)
		return params[0].Value, nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := newChaosClient(fs, &core.HTTPTransport{URL: ts.URL, Client: ts.Client()})
	client.Policy = &core.CallPolicy{
		Timeout:     2 * time.Second,
		MaxRetries:  20,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	}

	const callers = 3
	var wg sync.WaitGroup
	var retried atomic.Int64
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Call(context.Background(), "echo", nil,
				soap.Param{Name: "v", Value: idl.IntV(int64(i))})
			errs[i] = err
			if err == nil && resp.Stats.Attempts > 1 {
				retried.Add(1)
			}
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d failed: %v", i, err)
		}
	}
	if shed := srv.Stats().Shed; shed == 0 {
		t.Error("no requests shed; the in-flight bound never engaged")
	} else if retried.Load() == 0 {
		t.Error("requests were shed but no successful call reports >1 attempt")
	}
	if srv.InFlight() != 0 {
		t.Errorf("InFlight() = %d after all calls returned", srv.InFlight())
	}
}

// TestChaosCorruptTCPRecovery serves framed TCP through a fault
// listener that truncates one response and bit-flips another: the
// client must surface clean errors (or recover within its retry
// budget), and the endpoint must keep serving afterwards.
func TestChaosCorruptTCPRecovery(t *testing.T) {
	fs := pbio.NewMemServer()
	srv, _ := newChaosServer(fs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Script(faultinject.Truncate, faultinject.FlipBit)
	l := core.ServeTCPListener(srv, &faultinject.Listener{Listener: ln, Plan: plan})
	defer l.Close()

	tr := core.NewTCPPoolTransport(l.Addr(), 1)
	defer tr.Close()
	client := newChaosClient(fs, tr)
	client.Policy = &core.CallPolicy{
		Timeout:     300 * time.Millisecond,
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}

	// Drive calls until both corruptions have been consumed and a clean
	// call succeeds. Individual calls may fail (corruption is not always
	// recoverable within one call's budget) but must fail cleanly.
	var succeeded bool
	for i := 0; i < 8; i++ {
		if err := callEcho(client, int64(i)); err == nil && plan.Injected() == 2 {
			succeeded = true
			break
		}
	}
	if !succeeded {
		t.Fatalf("no clean success after the corruption script drained (injected=%d/%d draws)",
			plan.Injected(), plan.Calls())
	}
	// The endpoint stays healthy.
	if err := callEcho(client, 42); err != nil {
		t.Fatalf("post-recovery call failed: %v", err)
	}
}

// TestChaosStallTCP stalls a response write indefinitely: the call must
// come back as a deadline fault when its budget expires — not hang —
// and closing the listener must unwedge the stalled connection so
// shutdown completes promptly.
func TestChaosStallTCP(t *testing.T) {
	fs := pbio.NewMemServer()
	srv, _ := newChaosServer(fs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Script(faultinject.Stall)
	l := core.ServeTCPListener(srv, &faultinject.Listener{Listener: ln, Plan: plan})

	tr := core.NewTCPPoolTransport(l.Addr(), 1)
	defer tr.Close()
	client := newChaosClient(fs, tr)
	client.Policy = &core.CallPolicy{Timeout: 100 * time.Millisecond}

	start := time.Now()
	err = callEcho(client, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call error = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled call took %v; deadline not enforced", elapsed)
	}

	// The server-side write is still blocked on the stalled connection;
	// Close must tear it down rather than wait forever.
	done := make(chan struct{})
	go func() {
		l.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("listener Close wedged on a stalled connection")
	}
}

// TestChaosDuplicateDelivery injects at-least-once delivery: the server
// processes the request twice, and the client still gets one good
// answer.
func TestChaosDuplicateDelivery(t *testing.T) {
	fs := pbio.NewMemServer()
	srv, handled := newChaosServer(fs)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := newChaosClient(fs, &faultinject.Transport{
		Inner: &core.HTTPTransport{URL: ts.URL, Client: ts.Client()},
		Plan:  faultinject.Script(faultinject.Duplicate),
	})
	if err := callEcho(client, 7); err != nil {
		t.Fatalf("duplicated call failed: %v", err)
	}
	if got := handled.Load(); got != 2 {
		t.Errorf("handler ran %d times, want 2 (duplicate delivery)", got)
	}
}

// TestChaosOverloadBurst injects HTTP 503s: the policy retries them (a
// 5xx is transient) and the calls succeed once the burst passes.
func TestChaosOverloadBurst(t *testing.T) {
	fs := pbio.NewMemServer()
	srv, _ := newChaosServer(fs)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := newChaosClient(fs, &faultinject.Transport{
		Inner: &core.HTTPTransport{URL: ts.URL, Client: ts.Client()},
		Plan:  faultinject.Script(faultinject.Status503, faultinject.Status503),
	})
	client.Policy = &core.CallPolicy{
		Timeout: time.Second, MaxRetries: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	}
	resp, err := client.Call(context.Background(), "echo", nil,
		soap.Param{Name: "v", Value: idl.IntV(1)})
	if err != nil {
		t.Fatalf("call failed through the 503 burst: %v", err)
	}
	if resp.Stats.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (two 503s then success)", resp.Stats.Attempts)
	}
}

// Quality pair for the degradation loop: the small type drops the bulk
// payload field.
var (
	chaosQFull = idl.Struct("ChaosQFull",
		idl.F("id", idl.Int()),
		idl.F("data", idl.List(idl.Float())),
	)
	chaosQSmall = idl.Struct("ChaosQSmall",
		idl.F("id", idl.Int()),
	)
)

const chaosQPolicy = `
attribute rtt
default ChaosQFull
0 10ms ChaosQFull
10ms inf ChaosQSmall
`

// TestChaosQualityDegradeRecover closes the failure-aware quality loop
// end to end over HTTP: a burst of injected resets raises the client's
// fault pressure, the penalized estimate piggybacks to the server,
// selection degrades to the small type, and sustained successes decay
// the pressure until full quality returns.
func TestChaosQualityDegradeRecover(t *testing.T) {
	types := map[string]*idl.Type{"ChaosQFull": chaosQFull, "ChaosQSmall": chaosQSmall}
	policy, err := quality.ParsePolicy(strings.NewReader(chaosQPolicy), types, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.MustServiceSpec("ChaosQuality",
		&core.OpDef{
			Name:       "get",
			Params:     []soap.ParamSpec{{Name: "id", Type: idl.Int()}},
			Result:     chaosQFull,
			Idempotent: true,
		},
	)

	fs := pbio.NewMemServer()
	srv := core.NewServer(spec, pbio.NewCodec(pbio.NewRegistry(fs)))
	payload := make([]idl.Value, 32)
	for i := range payload {
		payload[i] = idl.FloatV(float64(i))
	}
	srv.MustHandle("get", quality.NewManager(policy, nil).Middleware(
		func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
			return idl.StructV(chaosQFull, params[0].Value, idl.ListV(idl.Float(), payload...)), nil
		}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Six resets saturate the client's fault pressure before any
	// successful exchange.
	plan := faultinject.Script(
		faultinject.Reset, faultinject.Reset, faultinject.Reset,
		faultinject.Reset, faultinject.Reset, faultinject.Reset,
	)
	inner := core.NewClient(spec, &faultinject.Transport{
		Inner: &core.HTTPTransport{URL: ts.URL, Client: ts.Client()},
		Plan:  plan,
	}, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)
	qc := quality.NewClient(inner, policy)

	for i := 0; i < 6; i++ {
		if _, err := qc.Call(context.Background(), "get", nil,
			soap.Param{Name: "id", Value: idl.IntV(int64(i))}); err == nil {
			t.Fatalf("call %d should have failed under an injected reset", i)
		}
	}
	if p := qc.Estimator.Pressure(); p == 0 {
		t.Fatal("fault pressure did not rise under sustained resets")
	}
	if eff, est := qc.Estimator.Effective(), qc.Estimator.Estimate(); eff <= est {
		t.Fatalf("Effective() = %v not penalized above Estimate() = %v", eff, est)
	}

	// Successful calls: selection must degrade while pressure is high,
	// then recover as successes drain it.
	var sawDegraded bool
	var lastDegraded bool
	for i := 0; i < 20; i++ {
		resp, err := qc.Call(context.Background(), "get", nil,
			soap.Param{Name: "id", Value: idl.IntV(int64(i))})
		if err != nil {
			t.Fatalf("clean call %d failed: %v", i, err)
		}
		_, lastDegraded = resp.Header[core.MsgTypeHeader]
		if lastDegraded {
			sawDegraded = true
			// Padded back to the declared type for the application.
			if !resp.Value.Type.Equal(chaosQFull) {
				t.Fatalf("degraded response not padded: type %s", resp.Value.Type)
			}
		}
	}
	if !sawDegraded {
		t.Error("selection never degraded under fault pressure")
	}
	if lastDegraded {
		t.Error("selection did not recover to full quality after pressure drained")
	}
	if p := qc.Estimator.Pressure(); p != 0 {
		t.Errorf("pressure = %d after 20 successes, want 0", p)
	}
}

// TestChaosBlackholeTCP injects the gray-failure mode: the connection
// is accepted but the request is swallowed before the server can read
// it. The call must die by its own deadline with the handler never
// invoked (unlike Stall, whose request is processed), and the endpoint
// must serve normally on the next, un-blackholed connection.
func TestChaosBlackholeTCP(t *testing.T) {
	fs := pbio.NewMemServer()
	srv, handled := newChaosServer(fs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Script(faultinject.Blackhole)
	l := core.ServeTCPListener(srv, &faultinject.Listener{Listener: ln, Plan: plan})
	defer l.Close()

	tr := core.NewTCPPoolTransport(l.Addr(), 1)
	defer tr.Close()
	client := newChaosClient(fs, tr)
	client.Policy = &core.CallPolicy{Timeout: 100 * time.Millisecond}

	start := time.Now()
	err = callEcho(client, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blackholed call error = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("blackholed call took %v; deadline not enforced", elapsed)
	}
	if handled.Load() != 0 {
		t.Fatalf("handler ran %d times; a blackholed request must never be seen", handled.Load())
	}

	// The script is drained: the redialed connection passes through and
	// the endpoint is healthy.
	if err := callEcho(client, 8); err != nil {
		t.Fatalf("post-blackhole call failed: %v", err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times after recovery, want 1", handled.Load())
	}
}
