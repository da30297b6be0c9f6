package core

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
)

// slowSpec declares the operations the context tests exercise: a slow
// operation that ignores its budget (exercising the server watchdog and
// client-side aborts) and an idempotent echo for the retry tests.
func slowSpec() *ServiceSpec {
	return MustServiceSpec("SlowService",
		&OpDef{
			Name:   "slow",
			Result: idl.Int(),
		},
		&OpDef{
			Name:       "echoInt",
			Params:     []soap.ParamSpec{{Name: "v", Type: idl.Int()}},
			Result:     idl.Int(),
			Idempotent: true,
		},
		&OpDef{
			Name:   "putInt", // same shape, but not safe to repeat
			Params: []soap.ParamSpec{{Name: "v", Type: idl.Int()}},
			Result: idl.Int(),
		},
	)
}

// newSlowServer serves slowSpec; the slow handler sleeps for handlerDelay
// without watching its context, the worst case for deadline enforcement.
func newSlowServer(fs *pbio.MemServer, handlerDelay time.Duration) *Server {
	srv := NewServer(slowSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("slow", func(_ *CallCtx, _ []soap.Param) (idl.Value, error) {
		time.Sleep(handlerDelay)
		return idl.IntV(1), nil
	})
	echo := func(_ *CallCtx, params []soap.Param) (idl.Value, error) {
		return params[0].Value, nil
	}
	srv.MustHandle("echoInt", echo)
	srv.MustHandle("putInt", echo)
	return srv
}

// slowRigs builds the slow service behind each real transport, so every
// deadline test runs against both HTTP and persistent TCP.
func slowRigs(t *testing.T, handlerDelay time.Duration) map[string]*Client {
	t.Helper()
	rigs := make(map[string]*Client)

	fs := pbio.NewMemServer()
	hsrv := newSlowServer(fs, handlerDelay)
	ts := httptest.NewServer(hsrv)
	t.Cleanup(ts.Close)
	rigs["http"] = NewClient(slowSpec(), &HTTPTransport{URL: ts.URL, Client: ts.Client()},
		pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)

	tfs := pbio.NewMemServer()
	tsrv := newSlowServer(tfs, handlerDelay)
	ln, err := ServeTCP(tsrv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	transport := NewTCPPoolTransport(ln.Addr(), 1)
	t.Cleanup(func() { transport.Close() })
	rigs["tcp"] = NewClient(slowSpec(), transport, pbio.NewCodec(pbio.NewRegistry(tfs)), WireBinary)

	return rigs
}

// The acceptance scenario: a 50ms deadline against a 500ms handler must
// come back as a deadline-exceeded fault almost immediately — on both
// transports, whichever side notices first.
func TestCallDeadlineExceededFault(t *testing.T) {
	for name, client := range slowRigs(t, 500*time.Millisecond) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := client.Call(ctx, "slow", nil)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
			var f *soap.Fault
			if !errors.As(err, &f) || f.Code != soap.FaultCodeDeadlineExceeded {
				t.Fatalf("err = %v, want fault %s", err, soap.FaultCodeDeadlineExceeded)
			}
			// Well under the handler's 500ms: the budget, not the handler,
			// bounded the call. The slack absorbs scheduler noise.
			if elapsed > 300*time.Millisecond {
				t.Errorf("deadline fault took %v, want ~50ms", elapsed)
			}
		})
	}
}

// Mid-call cancellation: the caller walks away and the call returns a
// cancelled fault promptly, again well before the handler would finish.
func TestCallMidCallCancellation(t *testing.T) {
	for name, client := range slowRigs(t, 500*time.Millisecond) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := client.Call(ctx, "slow", nil)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want canceled", err)
			}
			if elapsed > 300*time.Millisecond {
				t.Errorf("cancellation took %v, want ~20ms", elapsed)
			}
		})
	}
}

// CallPolicy.Timeout bounds the call even when the caller's context has
// no deadline of its own.
func TestCallPolicyTimeout(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := newSlowServer(fs, 500*time.Millisecond)
	client := NewClient(slowSpec(), &Loopback{Server: srv}, pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)
	client.Policy = &CallPolicy{Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := client.Call(context.Background(), "slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("policy timeout took %v, want ~50ms", elapsed)
	}
}

// headerOnlyTransport hands requests to a server WITHOUT the caller's
// context, so the only deadline the server can see is the one the client
// stamped on the envelope — isolating the wire propagation path.
type headerOnlyTransport struct {
	srv *Server
}

func (h *headerOnlyTransport) RoundTrip(_ context.Context, req *WireRequest) (*WireResponse, error) {
	ct, body := h.srv.Process(context.Background(), req.ContentType, req.Action, req.Body)
	return &WireResponse{ContentType: ct, Body: body}, nil
}

// The deadline header alone must carry the budget: the server decodes it
// into the handler context and the watchdog enforces it, even when the
// transport context is unbounded.
func TestDeadlineHeaderPropagation(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := NewServer(slowSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	sawDeadline := make(chan time.Duration, 1)
	srv.MustHandle("echoInt", func(cctx *CallCtx, params []soap.Param) (idl.Value, error) {
		deadline, ok := cctx.Context().Deadline()
		if !ok {
			sawDeadline <- 0
		} else {
			sawDeadline <- time.Until(deadline)
		}
		return params[0].Value, nil
	})
	client := NewClient(slowSpec(), &headerOnlyTransport{srv: srv}, pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, "echoInt", nil, soap.Param{Name: "v", Value: idl.IntV(7)}); err != nil {
		t.Fatal(err)
	}
	remaining := <-sawDeadline
	if remaining <= 0 || remaining > 30*time.Second {
		t.Errorf("handler saw remaining budget %v, want (0, 30s]", remaining)
	}

	// And an already-spent budget is refused before the handler runs.
	srv.MustHandle("slow", func(_ *CallCtx, _ []soap.Param) (idl.Value, error) {
		t.Error("handler ran despite expired budget")
		return idl.IntV(0), nil
	})
	hdr := soap.EncodeDeadline(nil, time.Now(), time.Now()) // 0ms remaining
	_, err := client.Call(context.Background(), "slow", hdr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired budget: err = %v, want deadline exceeded", err)
	}
}

// flakyCtxTransport fails the first n attempts with a transport error,
// then delegates to the loopback. It counts every attempt it sees.
type flakyCtxTransport struct {
	inner    Transport
	failures int
	attempts int
}

func (f *flakyCtxTransport) RoundTrip(ctx context.Context, req *WireRequest) (*WireResponse, error) {
	f.attempts++
	if f.attempts <= f.failures {
		return nil, fmt.Errorf("transient transport failure %d", f.attempts)
	}
	return f.inner.RoundTrip(ctx, req)
}

func newFlakyRig(t *testing.T, failures int) (*Client, *flakyCtxTransport) {
	t.Helper()
	fs := pbio.NewMemServer()
	srv := newSlowServer(fs, 0)
	tr := &flakyCtxTransport{inner: &Loopback{Server: srv}, failures: failures}
	client := NewClient(slowSpec(), tr, pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)
	return client, tr
}

// An idempotent operation is retried through transient transport errors
// with backoff; Attempts reports the true count.
func TestRetryIdempotentWithBackoff(t *testing.T) {
	client, tr := newFlakyRig(t, 2)
	client.Policy = &CallPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	resp, err := client.Call(context.Background(), "echoInt", nil, soap.Param{Name: "v", Value: idl.IntV(42)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value.Int != 42 {
		t.Errorf("echo = %d, want 42", resp.Value.Int)
	}
	if tr.attempts != 3 || resp.Stats.Attempts != 3 {
		t.Errorf("attempts = %d (transport) / %d (stats), want 3", tr.attempts, resp.Stats.Attempts)
	}
}

// A non-idempotent operation gets no retries under the same policy...
func TestNoRetryNonIdempotent(t *testing.T) {
	client, tr := newFlakyRig(t, 2)
	client.Policy = &CallPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond}
	if _, err := client.Call(context.Background(), "putInt", nil, soap.Param{Name: "v", Value: idl.IntV(1)}); err == nil {
		t.Fatal("flaky transport with no retry budget must fail")
	}
	if tr.attempts != 1 {
		t.Errorf("attempts = %d, want 1", tr.attempts)
	}

	// ...unless the caller explicitly opts in.
	client2, tr2 := newFlakyRig(t, 2)
	client2.Policy = &CallPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, RetryNonIdempotent: true}
	if _, err := client2.Call(context.Background(), "putInt", nil, soap.Param{Name: "v", Value: idl.IntV(1)}); err != nil {
		t.Fatal(err)
	}
	if tr2.attempts != 3 {
		t.Errorf("attempts = %d, want 3", tr2.attempts)
	}
}

// A fault is a definitive answer from the server, never retried; and a
// spent context stops the retry loop immediately.
func TestRetryStopsOnFaultAndContext(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := NewServer(slowSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	calls := 0
	srv.MustHandle("echoInt", func(_ *CallCtx, params []soap.Param) (idl.Value, error) {
		calls++
		return idl.Value{}, &soap.Fault{Code: soap.FaultCodeServer, String: "definitive no"}
	})
	client := NewClient(slowSpec(), &Loopback{Server: srv}, pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)
	client.Policy = &CallPolicy{MaxRetries: 5, BaseBackoff: time.Millisecond}
	var f *soap.Fault
	if _, err := client.Call(context.Background(), "echoInt", nil, soap.Param{Name: "v", Value: idl.IntV(1)}); !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if calls != 1 {
		t.Errorf("faulting handler invoked %d times, want 1 (faults are not retried)", calls)
	}

	client2, tr2 := newFlakyRig(t, 100)
	client2.Policy = &CallPolicy{MaxRetries: 50, BaseBackoff: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := client2.Call(ctx, "echoInt", nil, soap.Param{Name: "v", Value: idl.IntV(1)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if tr2.attempts > 3 {
		t.Errorf("attempts = %d; the spent context must stop the retry loop", tr2.attempts)
	}
}

// Shutdown refuses new work with an unavailable fault while letting
// in-flight handlers finish.
func TestServerShutdownDrains(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := NewServer(slowSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	started := make(chan struct{})
	release := make(chan struct{})
	srv.MustHandle("slow", func(_ *CallCtx, _ []soap.Param) (idl.Value, error) {
		close(started)
		<-release
		return idl.IntV(1), nil
	})
	srv.MustHandle("echoInt", func(_ *CallCtx, params []soap.Param) (idl.Value, error) {
		return params[0].Value, nil
	})
	client := NewClient(slowSpec(), &Loopback{Server: srv}, pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)

	inflightDone := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), "slow", nil)
		inflightDone <- err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// New work is refused while draining. Shutdown runs in a goroutine, so
	// poll until its draining flag is visible.
	var f *soap.Fault
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := client.Call(context.Background(), "echoInt", nil, soap.Param{Name: "v", Value: idl.IntV(1)})
		if errors.As(err, &f) && f.Code == soap.FaultCodeUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call during drain: %v, want fault %s", err, soap.FaultCodeUnavailable)
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight handler finished", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-inflightDone; err != nil {
		t.Errorf("in-flight call failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown = %v", err)
	}

	// A Shutdown bounded by an already-spent context still reports it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv2 := NewServer(slowSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	if err := srv2.Shutdown(ctx); err == nil {
		_ = err // nothing in flight: returning nil immediately is fine too
	}
}

// Fault.Is lets callers branch with errors.Is regardless of which side
// produced the fault.
func TestContextFaultErrorsIs(t *testing.T) {
	if !errors.Is(soap.ContextFault(context.DeadlineExceeded), context.DeadlineExceeded) {
		t.Error("deadline fault must match context.DeadlineExceeded")
	}
	if !errors.Is(soap.ContextFault(context.Canceled), context.Canceled) {
		t.Error("cancelled fault must match context.Canceled")
	}
	if errors.Is(soap.ContextFault(context.Canceled), context.DeadlineExceeded) {
		t.Error("cancelled fault must not match DeadlineExceeded")
	}
	if soap.ContextFault(errors.New("other")) != nil {
		t.Error("non-context error must map to nil")
	}
}
