package core

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/frame"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/workload"
)

// muxRig is a pooled-transport client/server pair. arm(true) makes the
// echo handler block on gate (for cancellation tests).
type muxRig struct {
	client *Client
	ln     *TCPListener
	pool   *TCPPoolTransport
	gate   chan struct{}
	arm    func(bool)
}

// serverConns counts the connections the listener currently serves.
func (r *muxRig) serverConns() int {
	r.ln.mu.Lock()
	defer r.ln.mu.Unlock()
	return len(r.ln.conns)
}

// newMuxRig serves testService over TCP and returns a client on a pooled
// multiplexed transport of the given width.
func newMuxRig(t *testing.T, wire WireFormat, conns int) *muxRig {
	t.Helper()
	gate := make(chan struct{})
	blocked := false
	var mu sync.Mutex
	fs := pbio.NewMemServer()
	srv := NewServer(testService(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("echo", func(cc *CallCtx, params []soap.Param) (idl.Value, error) {
		mu.Lock()
		b := blocked
		mu.Unlock()
		if b {
			select {
			case <-gate:
			case <-cc.Context().Done():
			}
		}
		return params[0].Value, nil
	})
	srv.MustHandle("fail", func(*CallCtx, []soap.Param) (idl.Value, error) {
		return idl.Value{}, errors.New("kaboom")
	})
	ln, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	transport := NewTCPPoolTransport(ln.Addr(), conns)
	t.Cleanup(func() { transport.Close() })
	client := NewClient(testService(), transport, pbio.NewCodec(pbio.NewRegistry(fs)), wire)
	arm := func(on bool) {
		mu.Lock()
		blocked = on
		mu.Unlock()
	}
	return &muxRig{client: client, ln: ln, pool: transport, gate: gate, arm: arm}
}

func TestTCPPoolAllWires(t *testing.T) {
	payload := workload.NestedStruct(3, 2)
	for _, wire := range wires() {
		t.Run(wire.String(), func(t *testing.T) {
			client := newMuxRig(t, wire, 2).client
			resp, err := client.Call(context.Background(), "echo", soap.Header{"k": "v"}, soap.Param{Name: "payload", Value: payload})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Value.Equal(payload) {
				t.Error("echo over pooled TCP mismatch")
			}
		})
	}
}

func TestTCPPoolFaults(t *testing.T) {
	client := newMuxRig(t, WireBinary, 2).client
	_, err := client.Call(context.Background(), "fail", nil)
	var f *soap.Fault
	if !errors.As(err, &f) || f.String != "kaboom" {
		t.Fatalf("fault = %v", err)
	}
}

// TestTCPPoolConcurrentCalls drives 64 concurrent callers through a
// 4-connection pool: correlation must route every response to its own
// caller even though responses interleave across shared connections.
func TestTCPPoolConcurrentCalls(t *testing.T) {
	client := newMuxRig(t, WireBinary, 4).client
	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			payload := workload.NestedStruct(3, 1+n%3)
			for j := 0; j < 5; j++ {
				resp, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
				if err != nil {
					errs <- err
					return
				}
				if !resp.Value.Equal(payload) {
					errs <- errors.New("response routed to wrong caller")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPPoolCancellationAbandons verifies the abandon-not-corrupt
// contract: a cancelled call returns promptly, and the same (single)
// connection keeps serving subsequent calls — the late response is
// dropped by correlation ID, not left in the stream to poison the next
// reader.
func TestTCPPoolCancellationAbandons(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 1)
	client, gate := rig.client, rig.gate
	payload := workload.NestedStruct(3, 1)

	// Warm the single connection.
	if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
		t.Fatal(err)
	}

	rig.arm(true)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := client.Call(ctx, "echo", nil, soap.Param{Name: "payload", Value: payload})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	rig.arm(false)
	close(gate) // release the stuck handler; its response must be dropped

	// The same connection must still work: a corrupted stream would fail
	// (or misroute) these calls.
	for i := 0; i < 5; i++ {
		resp, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
		if err != nil {
			t.Fatalf("call %d after abandon: %v", i, err)
		}
		if !resp.Value.Equal(payload) {
			t.Fatalf("call %d after abandon: response misrouted", i)
		}
	}
	if n := rig.serverConns(); n != 1 {
		t.Fatalf("a cancelled call cost the connection: server holds %d, want the original 1", n)
	}
}

// gatedProcessor echoes every envelope, holding those whose body is
// "slow" until gate closes.
type gatedProcessor struct{ gate chan struct{} }

func (p gatedProcessor) Process(_ context.Context, ct, _ string, body []byte) (string, []byte) {
	if string(body) == "slow" {
		<-p.gate
	}
	return ct, append([]byte(nil), body...)
}

// TestTCPPoolDeadlineRetiresConnection: an expired deadline cannot tell
// a slow peer from a silent connection, so it retires the connection —
// new calls go to a fresh one — without hurting the call that was
// pending beside it, and the retired connection closes once that call
// has its reply.
func TestTCPPoolDeadlineRetiresConnection(t *testing.T) {
	gate := make(chan struct{})
	ln, err := ServeTCP(gatedProcessor{gate}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pool := NewTCPPoolTransport(ln.Addr(), 1)
	defer pool.Close()
	call := func(ctx context.Context, body string) error {
		resp, err := pool.RoundTrip(ctx, &WireRequest{ContentType: ContentTypeXML, Body: []byte(body)})
		if err != nil {
			return err
		}
		if string(resp.Body) != body {
			t.Errorf("reply %q to request %q", resp.Body, body)
		}
		bufpool.Put(resp.Body)
		return nil
	}
	serverConns := func() int {
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return len(ln.conns)
	}
	if err := call(context.Background(), "warm"); err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	first := pool.conns[0]
	pool.mu.Unlock()

	// Two calls wait on the one connection: a patient one, and one whose
	// deadline expires.
	patient := make(chan error, 1)
	go func() { patient <- call(context.Background(), "slow") }()
	for deadline := time.Now().Add(5 * time.Second); first.inflight.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("patient call never registered")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := call(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call error = %v, want DeadlineExceeded", err)
	}
	if !first.unusable() {
		t.Fatal("connection still takes calls after a deadline expired on it")
	}
	select {
	case err := <-patient:
		t.Fatalf("retiring the connection ended the call pending beside the expired one: %v", err)
	default:
	}

	// The next call rides a new connection while the retired one waits
	// for the patient call.
	if err := call(context.Background(), "next"); err != nil {
		t.Fatalf("call after the expired one: %v", err)
	}
	pool.mu.Lock()
	second := pool.conns[0]
	pool.mu.Unlock()
	if second == first {
		t.Fatal("the retired connection served a new call")
	}

	close(gate)
	if err := <-patient; err != nil {
		t.Fatalf("patient call on the retired connection: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); serverConns() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("retired connection not closed after its last call left: server holds %d connections", serverConns())
		}
	}
}

// TestTCPPoolReconnects kills every server-side connection and expects
// the pool to redial transparently.
func TestTCPPoolReconnects(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 2)
	client, ln := rig.client, rig.ln
	payload := workload.NestedStruct(3, 1)
	if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
		t.Fatal(err)
	}
	ln.mu.Lock()
	for c := range ln.conns {
		c.Close()
	}
	ln.mu.Unlock()
	// The client side notices asynchronously: until its reader has seen
	// the close, a call may still go out on a dying connection and fail
	// (the transport does not send it twice); once it has, health-aware
	// checkout redials.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not recover: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPPoolSequentialCallsShareConnection: a width-1 pool is the
// single-connection transport — every call rides the one connection.
func TestTCPPoolSequentialCallsShareConnection(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 1)
	payload := workload.NestedStruct(3, 1)
	for i := 0; i < 25; i++ {
		if _, err := rig.client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if conns := rig.serverConns(); conns != 1 {
		t.Fatalf("25 sequential calls used %d connections, want 1", conns)
	}
}

func TestTCPPoolDialFailure(t *testing.T) {
	tr := NewTCPPoolTransport("127.0.0.1:1", 1)
	defer tr.Close()
	if _, err := tr.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary, Body: []byte{1}}); err == nil {
		t.Error("dead endpoint must fail")
	}
	if _, err := tr.RoundTrip(context.Background(), &WireRequest{ContentType: "weird"}); err == nil {
		t.Error("unknown content type must fail")
	}
}

// TestTCPPoolReconnectsAfterListenerRestart: the endpoint goes away and
// comes back on the same address; once the pool has seen its connection
// die, the next call dials the new listener.
func TestTCPPoolReconnectsAfterListenerRestart(t *testing.T) {
	srv := NewServer(testService(), pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer())))
	ln, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	pool := NewTCPPoolTransport(addr, 1)
	defer pool.Close()
	ping := func() error {
		resp, err := pool.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeXML})
		if err == nil {
			bufpool.Put(resp.Body)
		}
		return err
	}
	if err := ping(); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	pool.mu.Lock()
	m := pool.conns[0]
	pool.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); !m.unusable(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("pool never noticed the closed connection")
		}
	}
	if err := ping(); err == nil {
		t.Fatal("call with the listener down succeeded")
	}
	ln, err = ServeTCP(srv, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := ping(); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

// TestTCPPoolAtMostOnce: a connection-level error that arrives after the
// request frame went out whole must not make the transport send the
// request again — whether the operation ran is unknown, and a
// non-idempotent one must not run twice. The raw listener completes the
// handshake, reads one whole request, counts it and closes.
func TestTCPPoolAtMostOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var requests atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [len(muxHello)]byte
			var hdr [muxHdr]byte
			if _, err := io.ReadFull(conn, hello[:]); err == nil && hello == muxHello {
				if body, err := frame.Read(conn, hdr[:], maxTCPFrame); err == nil {
					bufpool.Put(body)
					requests.Add(1)
				}
			}
			conn.Close()
		}
	}()
	pool := NewTCPPoolTransport(ln.Addr().String(), 1)
	defer pool.Close()
	_, err = pool.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeXML, Action: "urn:debit", Body: []byte("<x/>")})
	if err == nil {
		t.Fatal("round trip against a peer that hangs up succeeded")
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("peer received the request %d times, want 1", n)
	}
}

// TestTCPPoolBreakerComposes verifies the PR-3 circuit breaker works
// unchanged over the pooled transport: repeated failures against a dead
// endpoint trip it, after which calls fast-fail without dialing.
func TestTCPPoolBreakerComposes(t *testing.T) {
	tr := NewTCPPoolTransport("127.0.0.1:1", 2)
	defer tr.Close()
	client := NewClient(testService(), tr, pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer())), WireBinary)
	client.Breaker = NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, Cooldown: time.Hour})
	payload := workload.NestedStruct(3, 1)
	for i := 0; i < 6; i++ {
		if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err == nil {
			t.Fatal("dead endpoint succeeded")
		}
	}
	if client.Breaker.State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", client.Breaker.State())
	}
	_, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
	if !errors.Is(err, soap.ErrUnavailable) {
		t.Fatalf("fast-fail error = %v, want unavailable family", err)
	}
	if client.Breaker.FastFails() == 0 {
		t.Error("breaker recorded no fast-fails")
	}
}

func TestTCPPoolClose(t *testing.T) {
	client := newMuxRig(t, WireBinary, 2).client
	payload := workload.NestedStruct(3, 1)
	if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
		t.Fatal(err)
	}
	tr := client.transport.(*TCPPoolTransport)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary, Body: []byte{1}}); !errors.Is(err, errMuxClosed) {
		t.Fatalf("call on closed pool = %v", err)
	}
}

// TestTCPPoolDrainVsCheckout covers the checkout-vs-drain race: once a
// pool enters drain, a checkout fails immediately with an
// unavailable-family fault — so a router retries the call elsewhere —
// instead of blocking until the mux closes; the call already in flight
// when drain began runs to completion.
func TestTCPPoolDrainVsCheckout(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 2)
	rig.arm(true)
	payload := workload.NestedStruct(3, 1)

	inFlight := make(chan error, 1)
	go func() {
		_, err := rig.client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
		inFlight <- err
	}()
	poolLoad := func() int64 {
		rig.pool.mu.Lock()
		defer rig.pool.mu.Unlock()
		var n int64
		for _, m := range rig.pool.conns {
			if m != nil && !m.unusable() {
				n += m.inflight.Load()
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for poolLoad() == 0 {
		select {
		case err := <-inFlight:
			t.Fatalf("blocked call returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked call never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- rig.pool.Drain(context.Background()) }()
	for !rig.pool.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("pool never entered drain")
		}
		time.Sleep(time.Millisecond)
	}

	// The race under test: a checkout against the draining pool must be
	// refused now, not after the in-flight call (still parked on the
	// gate) finishes.
	start := time.Now()
	_, err := rig.pool.checkout(context.Background())
	if !errors.Is(err, soap.ErrUnavailable) {
		t.Fatalf("checkout during drain = %v, want ErrUnavailable family", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("draining checkout blocked %v", waited)
	}

	rig.arm(false)
	close(rig.gate)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain ends in Close: the pool is fully retired.
	if _, err := rig.pool.checkout(context.Background()); !errors.Is(err, errMuxClosed) {
		t.Fatalf("checkout after drain = %v, want closed", err)
	}
}

// TestTCPPoolDrainDeadline verifies a drain abandoned by its context
// still closes the pool and wakes the stuck call.
func TestTCPPoolDrainDeadline(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 1)
	rig.arm(true)
	defer close(rig.gate)

	inFlight := make(chan error, 1)
	go func() {
		_, err := rig.client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: workload.NestedStruct(3, 1)})
		inFlight <- err
	}()
	load := func() int64 {
		rig.pool.mu.Lock()
		defer rig.pool.mu.Unlock()
		if m := rig.pool.conns[0]; m != nil {
			return m.inflight.Load()
		}
		return 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for load() == 0 {
		select {
		case err := <-inFlight:
			t.Fatalf("blocked call returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked call never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rig.pool.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past deadline = %v", err)
	}
	if err := <-inFlight; err == nil {
		t.Fatal("call stuck past drain deadline returned success")
	}
}
