package core

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/workload"
)

func newHTTPRig(t *testing.T, wire WireFormat) (*Client, *Server) {
	t.Helper()
	fs := pbio.NewMemServer()
	srv := NewServer(testService(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("echo", func(_ *CallCtx, params []soap.Param) (idl.Value, error) {
		return params[0].Value, nil
	})
	srv.MustHandle("fail", func(_ *CallCtx, _ []soap.Param) (idl.Value, error) {
		return idl.Value{}, errors.New("kaboom")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	transport := &HTTPTransport{URL: ts.URL, Client: ts.Client()}
	client := NewClient(testService(), transport, pbio.NewCodec(pbio.NewRegistry(fs)), wire)
	return client, srv
}

func TestHTTPRoundTripAllWires(t *testing.T) {
	payload := workload.NestedStruct(3, 2)
	for _, wire := range wires() {
		t.Run(wire.String(), func(t *testing.T) {
			client, _ := newHTTPRig(t, wire)
			resp, err := client.Call(context.Background(), "echo", soap.Header{"ts": "1"}, soap.Param{Name: "payload", Value: payload})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Value.Equal(payload) {
				t.Error("echo over HTTP mismatch")
			}
		})
	}
}

func TestHTTPFaultStatus500(t *testing.T) {
	client, _ := newHTTPRig(t, WireBinary)
	_, err := client.Call(context.Background(), "fail", nil)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	// XML wire too: 500 + parseable fault envelope.
	clientXML, _ := newHTTPRig(t, WireXML)
	_, err = clientXML.Call(context.Background(), "fail", nil)
	if !errors.As(err, &f) || !strings.Contains(f.String, "kaboom") {
		t.Fatalf("xml fault: %v", err)
	}
}

func TestHTTPRejectsNonPost(t *testing.T) {
	_, srv := newHTTPRig(t, WireBinary)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestHTTPRequestSizeLimit(t *testing.T) {
	for _, wire := range wires() {
		t.Run(wire.String(), func(t *testing.T) {
			client, srv := newHTTPRig(t, wire)
			srv.MaxRequestBytes = 64
			_, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: workload.NestedStruct(3, 3)})
			// Not a bare transport error: the rejection arrives as a
			// parseable Client fault in the request's own wire format.
			var f *soap.Fault
			if !errors.As(err, &f) {
				t.Fatalf("oversized request: got %v, want *soap.Fault", err)
			}
			if f.Code != soap.FaultCodeClient || !strings.Contains(f.String, "byte limit") {
				t.Errorf("fault = %q %q", f.Code, f.String)
			}
		})
	}
}

func TestHTTPTransportErrors(t *testing.T) {
	tr := &HTTPTransport{URL: "http://127.0.0.1:1/nope"}
	if _, err := tr.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary, Body: []byte{1}}); err == nil {
		t.Error("dead endpoint must error")
	}
	tr2 := &HTTPTransport{URL: ":bad url:"}
	if _, err := tr2.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary}); err == nil {
		t.Error("bad URL must error")
	}
}

// TestHTTPTransportReusesConnections drives sequential and concurrent
// calls through the default (nil-Client) HTTPTransport and counts TCP
// connections server-side. With net/http defaults this shape (many
// callers, one endpoint) would redial constantly; the tuned shared
// client must not: sequential calls share one connection, and once a
// round of fully overlapping calls has opened one connection per caller,
// later rounds open none. (How many connections the first concurrent
// round opens is net/http's business — it dials speculatively — so no
// ceiling is asserted on it.)
func TestHTTPTransportReusesConnections(t *testing.T) {
	const callers, rounds = 16, 4
	var overlap atomic.Bool // when set, echo handlers wait until all callers are in flight
	arrived := make(chan struct{}, callers)
	release := make(chan struct{})

	fs := pbio.NewMemServer()
	srv := NewServer(testService(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("echo", func(_ *CallCtx, params []soap.Param) (idl.Value, error) {
		if overlap.Load() {
			arrived <- struct{}{}
			<-release
		}
		return params[0].Value, nil
	})
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(srv)
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)

	transport := &HTTPTransport{URL: hs.URL} // nil Client: the tuned shared default
	client := NewClient(testService(), transport, pbio.NewCodec(pbio.NewRegistry(fs)), WireBinary)
	payload := workload.NestedStruct(3, 1)

	// call makes one invocation and returns once its connection is back
	// in the client's idle pool. net/http puts it there from its own
	// goroutine, after the caller has seen the body's EOF; a next call
	// that raced that hand-back would find the pool empty and dial.
	call := func() error {
		idle := make(chan error, 1)
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			PutIdleConn: func(err error) {
				select {
				case idle <- err:
				default:
				}
			},
		})
		if _, err := client.Call(ctx, "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
			return err
		}
		select {
		case err := <-idle:
			return err
		case <-time.After(5 * time.Second):
			return errors.New("connection never returned to the idle pool")
		}
	}
	round := func() {
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := call(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}

	const sequential = 20
	for i := 0; i < sequential; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d sequential calls used %d connections, want 1", sequential, n)
	}

	// Round 1: every caller in flight at once, so the idle pool ends up
	// holding at least one connection per caller.
	overlap.Store(true)
	go func() {
		for i := 0; i < callers; i++ {
			<-arrived
		}
		overlap.Store(false)
		close(release)
	}()
	round()
	opened := conns.Load()
	if opened < callers {
		t.Fatalf("%d overlapping calls used %d connections", callers, opened)
	}
	for r := 2; r <= rounds; r++ {
		round()
	}
	if n := conns.Load(); n != opened {
		t.Errorf("rounds 2..%d opened %d new connections, want 0 (pool capacity is MaxIdleConnsPerHost=64 > %d callers)",
			rounds, n-opened, callers)
	}
}

func TestTrimActionQuotes(t *testing.T) {
	for in, want := range map[string]string{
		`"echo"`: "echo",
		`echo`:   "echo",
		`"`:      `"`,
		``:       ``,
	} {
		if got := trimActionQuotes(in); got != want {
			t.Errorf("trimActionQuotes(%q) = %q, want %q", in, got, want)
		}
	}
}
