package soapbinq

import (
	"context"
	"io"
	"testing"

	"soapbinq/internal/bench"
	"soapbinq/internal/core"
	"soapbinq/internal/pbio"
	"soapbinq/internal/workload"
	"soapbinq/internal/xdr"
	"soapbinq/internal/xmlenc"
)

// One benchmark per paper table/figure, each delegating to the shared
// experiment engine in quick mode (full-size regeneration is
// `go run ./cmd/soapbench -all`). The per-op numbers these report are the
// wall time of one complete experiment run.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aSunRPCvsSOAPBinArrays(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4bSunRPCvsSOAPBinStructs(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig5SizesAndCodecCosts(b *testing.B)      { benchExperiment(b, "fig5sizes") }
func BenchmarkFig5ArraysOverLinks(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6StructsOverLinks(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7ThreeModes(b *testing.B)              { benchExperiment(b, "fig7") }
func BenchmarkFig8ImagingAdaptation(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9MoldynBatching(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkTable1AirlineEventRates(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkVizPortalResponse(b *testing.B)           { benchExperiment(b, "viz") }
func BenchmarkHeadline1MBTransmission(b *testing.B)     { benchExperiment(b, "headline") }

// Ablation experiments (design choices isolated; see EXPERIMENTS.md).
func BenchmarkAblationFormatCache(b *testing.B) { benchExperiment(b, "ablation-cache") }
func BenchmarkAblationHysteresis(b *testing.B)  { benchExperiment(b, "ablation-hysteresis") }
func BenchmarkAblationRMR(b *testing.B)         { benchExperiment(b, "ablation-rmr") }

// ---- codec microbenchmarks (per-operation costs) ----

func newBenchCodec() (*pbio.Codec, *pbio.Codec) {
	fs := pbio.NewMemServer()
	return pbio.NewCodec(pbio.NewRegistry(fs)), pbio.NewCodec(pbio.NewRegistry(fs))
}

func BenchmarkPBIOMarshalArray64K(b *testing.B) {
	enc, _ := newBenchCodec()
	v := workload.IntArray(8192) // 64 KB payload
	size, err := enc.EncodedSize(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPBIOUnmarshalArray64K(b *testing.B) {
	enc, dec := newBenchCodec()
	v := workload.IntArray(8192)
	msg, err := enc.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Unmarshal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPBIOMarshalNestedStruct(b *testing.B) {
	enc, _ := newBenchCodec()
	v := workload.NestedStruct(8, 4)
	size, err := enc.EncodedSize(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPBIOUnmarshalNestedStruct(b *testing.B) {
	enc, dec := newBenchCodec()
	v := workload.NestedStruct(8, 4)
	msg, err := enc.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Unmarshal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLMarshalArray64K(b *testing.B) {
	v := workload.IntArray(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmlenc.Marshal("v", v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLUnmarshalArray64K(b *testing.B) {
	v := workload.IntArray(8192)
	doc, err := xmlenc.Marshal("v", v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmlenc.Unmarshal(doc, "v", v.Type); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXDRMarshalArray64K(b *testing.B) {
	v := workload.IntArray(8192)
	b.SetBytes(int64(xdr.EncodedSize(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xdr.Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeflateXMLArray64K(b *testing.B) {
	v := workload.IntArray(8192)
	doc, err := xmlenc.Marshal("v", v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Deflate(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualityMiddlewareOverhead measures what the binQ layer adds to
// an invocation when no downgrade happens (the common fast-link case):
// timestamp echo, estimate bookkeeping, selection.
func BenchmarkQualityMiddlewareOverhead(b *testing.B) {
	fs := NewMemFormatServer()
	full := StructT("BFull", F("n", Int()), F("pad", List(Char())))
	small := StructT("BSmall", F("n", Int()))
	types := map[string]*Type{"BFull": full, "BSmall": small}
	policy, err := ParseQualityPolicy("attribute rtt\n0 inf BFull\n", types, nil)
	if err != nil {
		b.Fatal(err)
	}
	pad := make([]Value, 512)
	for i := range pad {
		pad[i] = CharV(byte(i))
	}
	val := StructV(full, IntV(1), Value{Type: List(Char()), List: pad})

	spec := MustServiceSpec("QB", &OpDef{Name: "get", Result: full})
	srv := NewEndpoint(fs).NewServer(spec)
	srv.MustHandle("get", QualityMiddleware(policy, nil, func(*CallCtx, []Param) (Value, error) {
		return val, nil
	}))
	qc := NewQualityClient(NewEndpoint(fs).NewClient(spec, &Loopback{Server: srv}, WireBinary), policy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qc.Call(context.Background(), "get", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryEnvelope measures SOAP-bin envelope framing alone.
func BenchmarkBinaryEnvelopeRoundTrip(b *testing.B) {
	fs := NewMemFormatServer()
	spec := MustServiceSpec("EB",
		&OpDef{
			Name:   "echo",
			Params: []ParamSpec{{Name: "v", Type: workload.NestedStructType(4)}},
			Result: workload.NestedStructType(4),
		},
	)
	srv := NewEndpoint(fs).NewServer(spec)
	srv.MustHandle("echo", func(_ *CallCtx, params []Param) (Value, error) {
		return params[0].Value, nil
	})
	client := NewEndpoint(fs).NewClient(spec, &Loopback{Server: srv}, WireBinary)
	v := workload.NestedStruct(4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(context.Background(), "echo", nil, Param{Name: "v", Value: v}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackCallBinary measures a complete SOAP-bin invocation
// (marshal, dispatch, unmarshal) with no network at all.
func BenchmarkLoopbackCallBinary(b *testing.B) {
	benchLoopbackCall(b, core.WireBinary)
}

// BenchmarkLoopbackCallXML is the same invocation as regular SOAP.
func BenchmarkLoopbackCallXML(b *testing.B) {
	benchLoopbackCall(b, core.WireXML)
}

func benchLoopbackCall(b *testing.B, wire core.WireFormat) {
	b.Helper()
	fs := NewMemFormatServer()
	spec := MustServiceSpec("B",
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
	client := NewEndpoint(fs).NewClient(spec, &Loopback{Server: srv}, wire)
	v := workload.IntArray(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(context.Background(), "echo", nil, Param{Name: "v", Value: v}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- hot-path regression benchmarks (PR 4) ----
//
// CI runs these with -bench Hotpath -benchmem -benchtime=100x as a
// smoke gate; `make bench` produces the full BENCH_prN.json report via
// the same measurements in internal/bench/hotpath.go.

// BenchmarkHotpathEncodeReused is the compiled-plan encode into a reused
// buffer: 0 B/op, 0 allocs/op at steady state.
func BenchmarkHotpathEncodeReused(b *testing.B) {
	enc, _ := newBenchCodec()
	v := workload.IntArray(1024)
	wire, err := enc.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, len(wire)+64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.AppendMarshal(buf[:0], v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathDecodeReused is the compiled-plan decode into a reused
// value tree: 0 B/op, 0 allocs/op at steady state.
func BenchmarkHotpathDecodeReused(b *testing.B) {
	enc, dec := newBenchCodec()
	v := workload.IntArray(1024)
	wire, err := enc.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	var into Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.UnmarshalInto(&into, wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathLoopbackEchoReleased is the complete pooled
// invocation: request and response buffers from bufpool, decoded value
// slabs returned to the pool via Response.Release.
func BenchmarkHotpathLoopbackEchoReleased(b *testing.B) {
	fs := NewMemFormatServer()
	spec := MustServiceSpec("HB",
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
	client := NewEndpoint(fs).NewClient(spec, &Loopback{Server: srv}, core.WireBinary)
	v := workload.IntArray(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Call(context.Background(), "echo", nil, Param{Name: "v", Value: v})
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
	}
}
