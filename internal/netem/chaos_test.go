package netem

import (
	"context"
	"net"
	"testing"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/faultinject"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
)

// TestChaosComposedListener proves the Chaos composition: a framed-TCP
// SOAP server behind link emulation *and* fault injection. The first
// connection is refused (the client's transport redials), the second
// passes through the throttled link and completes — both decisions
// drawn deterministically from the scripted plan.
func TestChaosComposedListener(t *testing.T) {
	spec := core.MustServiceSpec("ChaosNetem",
		&core.OpDef{
			Name:       "echo",
			Params:     []soap.ParamSpec{{Name: "v", Type: idl.Int()}},
			Result:     idl.Int(),
			Idempotent: true,
		},
	)
	fs := pbio.NewMemServer()
	srv := core.NewServer(spec, pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("echo", func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		return params[0].Value, nil
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Script(faultinject.Refuse)
	l := core.ServeTCPListener(srv, Chaos(ln, LAN100, plan))
	defer l.Close()

	tr := core.NewTCPPoolTransport(l.Addr(), 1)
	defer tr.Close()
	client := core.NewClient(spec, tr, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)
	client.Policy = &core.CallPolicy{
		Timeout:     2 * time.Second,
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}

	resp, err := client.Call(context.Background(), "echo", nil,
		soap.Param{Name: "v", Value: idl.IntV(11)})
	if err != nil {
		t.Fatalf("call through the chaos stack failed: %v", err)
	}
	if resp.Value.Int != 11 {
		t.Fatalf("echo = %d, want 11", resp.Value.Int)
	}
	// The refused first connection forced at least one redial before
	// the second, clean connection served the call.
	if plan.Calls() < 2 {
		t.Errorf("plan saw %d connections, want >= 2 (refusal then pass-through)", plan.Calls())
	}
	if got := plan.Counts()[faultinject.Refuse]; got != 1 {
		t.Errorf("refusals = %d, want 1", got)
	}
	// The paced link imposed its floor latency on the exchange.
	if rtt := resp.Stats.RoundTripTime; rtt < LAN100.Latency {
		t.Errorf("round trip %v beat the link's %v latency floor", rtt, LAN100.Latency)
	}
}
