package moldyn

import (
	"context"
	"testing"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/netem"
	"soapbinq/internal/pbio"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
)

func TestSimulatorDeterministic(t *testing.T) {
	a := NewSimulator(50, 9)
	b := NewSimulator(50, 9)
	fa := a.FrameAt(10)
	fb := b.FrameAt(10)
	if !fa.ToValue().Equal(fb.ToValue()) {
		t.Error("same seed+step must match")
	}
	if fa.ToValue().Equal(a.FrameAt(11).ToValue()) {
		t.Error("different steps must differ")
	}
	if a.Atoms() != 50 || a.Bonds() == 0 {
		t.Errorf("atoms=%d bonds=%d", a.Atoms(), a.Bonds())
	}
	if NewSimulator(0, 0).Atoms() != DefaultAtoms {
		t.Error("default atom count")
	}
}

func TestFrameValueRoundTrip(t *testing.T) {
	sim := NewSimulator(30, 3)
	f := sim.FrameAt(5)
	v := f.ToValue()
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	got, err := FrameFromValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 5 || len(got.Atoms) != 30 || len(got.Bonds) != len(f.Bonds) {
		t.Errorf("frame = %+v", got)
	}
	if got.Atoms[7] != f.Atoms[7] {
		t.Error("atom mismatch")
	}
	if _, err := FrameFromValue(idl.IntV(1)); err == nil {
		t.Error("non-frame must fail")
	}
}

func TestFrameSizeNearPaper(t *testing.T) {
	// The paper: "The size corresponding to each of the timesteps for the
	// response data is about 4KB."
	sim := NewSimulator(DefaultAtoms, 1)
	v := sim.FrameAt(0).ToValue()
	size, err := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer())).EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	if size < 2500 || size > 6500 {
		t.Errorf("frame size = %d bytes, want ≈4KB", size)
	}
}

func TestBatchValueAndHandlers(t *testing.T) {
	sim := NewSimulator(20, 2)
	b4 := BatchValue(sim, Batch4Type, 100, 4)
	if err := b4.Check(); err != nil {
		t.Fatal(err)
	}
	frames, _ := b4.Field("frames")
	if len(frames.List) != 4 {
		t.Fatalf("frames = %d", len(frames.List))
	}
	h := Handlers()
	out, err := h["batch2"](b4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != Batch2Type {
		t.Errorf("rebatch type = %s", out.Type)
	}
	of, _ := out.Field("frames")
	if len(of.List) != 2 {
		t.Errorf("rebatch frames = %d", len(of.List))
	}
	step0, _ := of.List[0].Field("step")
	if step0.Int != 100 {
		t.Error("rebatch must keep the earliest steps")
	}
	if _, err := h["batch1"](idl.IntV(1), nil); err == nil {
		t.Error("non-batch input must fail")
	}
}

func TestServiceAdaptiveBatching(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := core.NewServer(Spec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	sim := NewSimulator(DefaultAtoms, 4)
	policy, err := InstallService(srv, sim, "")
	if err != nil {
		t.Fatal(err)
	}

	// Link sized so a 4-frame (~16KB) response takes ≈ hundreds of µs.
	link := netem.LinkProfile{Name: "t", UpBps: 400e6, DownBps: 400e6, Latency: 20 * time.Microsecond}
	nsim := netem.NewSim(link, &core.Loopback{Server: srv})
	inner := core.NewClient(Spec(), nsim, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)
	qc := quality.NewClient(inner, policy)

	get := func(from int64) *core.Response {
		t.Helper()
		resp, err := qc.Call(context.Background(), "getBonds", nil, soap.Param{Name: "from", Value: idl.IntV(from)})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get(0)
	frames, _ := resp.Value.Field("frames")
	if len(frames.List) != 4 {
		t.Fatalf("clean link frames = %d, want 4", len(frames.List))
	}

	// Saturate: batches must shrink.
	nsim.AddCrossTraffic(netem.CrossTraffic{Start: nsim.Now(), End: nsim.Now() + time.Hour, Bps: 399.5e6})
	minFrames := 4
	for i := 0; i < 30; i++ {
		resp = get(int64(i * 4))
		f, _ := resp.Value.Field("frames")
		if len(f.List) < minFrames {
			minFrames = len(f.List)
		}
	}
	if minFrames > 2 {
		t.Errorf("batches never shrank under congestion (min %d)", minFrames)
	}

	// Negative timestep faults.
	if _, err := qc.Call(context.Background(), "getBonds", nil, soap.Param{Name: "from", Value: idl.IntV(-1)}); err == nil {
		t.Error("negative timestep must fault")
	}
}

func TestInstallServiceBadPolicy(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := core.NewServer(Spec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	if _, err := InstallService(srv, NewSimulator(10, 1), "junk"); err == nil {
		t.Error("bad policy must fail")
	}
}
