package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/netem"
	"soapbinq/internal/pbio"
	"soapbinq/internal/stats"
	"soapbinq/internal/sunrpc"
	"soapbinq/internal/workload"
	"soapbinq/internal/xmlenc"
)

func init() {
	register(Experiment{ID: "fig4a", Title: "Sun RPC vs SOAP-bin, integer arrays (overall µs)", Run: fig4a})
	register(Experiment{ID: "fig4b", Title: "Sun RPC vs SOAP-bin, nested structs (overall µs)", Run: fig4b})
	register(Experiment{ID: "fig5sizes", Title: "Marshalling costs and message sizes: PBIO vs XML vs compressed XML", Run: fig5sizes})
	register(Experiment{ID: "fig5", Title: "SOAP-bin vs compressed XML vs direct XML, arrays, 100Mbps + ADSL (ms)", Run: fig5})
	register(Experiment{ID: "fig6", Title: "SOAP-bin vs compressed XML vs direct XML, nested structs, 100Mbps + ADSL (ms)", Run: fig6})
	register(Experiment{ID: "fig7", Title: "High-performance vs interoperable vs compatibility modes (ms)", Run: fig7})
	register(Experiment{ID: "headline", Title: "1MB message transmission time, XML vs SOAP-bin over ADSL", Run: headline})
}

// ---- Figure 4: Sun RPC baseline ----

const (
	benchProg = 0x30000999
	benchVers = 1
	procArray = 1
	procObj   = 2
)

// fig4a compares overall marshal+transmit+unmarshal time of Sun RPC and
// SOAP-bin for integer arrays over real localhost sockets.
func fig4a(w io.Writer, quick bool) error {
	return fig4(w, quick, true)
}

// fig4b is fig4a for nested structs of increasing depth (the case the
// paper reports Sun RPC winning by up to 5.4×, due to SOAP-bin's HTTP
// transactions).
func fig4b(w io.Writer, quick bool) error {
	return fig4(w, quick, false)
}

func fig4(w io.Writer, quick bool, arrays bool) error {
	maxDepth := structDepths(quick)[len(structDepths(quick))-1]

	// Sun RPC server over TCP.
	rpcSrv := sunrpc.NewServer(benchProg, benchVers)
	arrayT := workload.IntArrayType()
	structT := workload.NestedStructType(maxDepth)
	echo := func(v idl.Value) (idl.Value, error) { return v, nil }
	if err := rpcSrv.Register(sunrpc.ProcDef{Proc: procArray, Arg: arrayT, Result: arrayT}, echo); err != nil {
		return err
	}
	if err := rpcSrv.Register(sunrpc.ProcDef{Proc: procObj, Arg: structT, Result: structT}, echo); err != nil {
		return err
	}
	if err := rpcSrv.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer rpcSrv.Close()
	rpcClient := sunrpc.NewClient(rpcSrv.Addr(), benchProg, benchVers)
	defer rpcClient.Close()

	n, discard := reps(quick)

	if arrays {
		series := stats.NewSeries("elements", "sunrpc_us", "soapbin_us")
		for _, size := range arraySizes(quick) {
			v := workload.IntArray(size)
			rig := newHTTPRig(2, core.WireBinary)
			rpcUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
				start := time.Now()
				if _, err := rpcClient.Call(procArray, v, arrayT); err != nil {
					return 0
				}
				return float64(time.Since(start)) / float64(time.Microsecond)
			})).Mean
			binUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
				st, err := callArray(rig.client, v)
				if err != nil {
					return 0
				}
				return float64(st.Total()) / float64(time.Microsecond)
			})).Mean
			rig.Close()
			series.Add(float64(size), rpcUS, binUS)
		}
		series.Render(w)
		return nil
	}

	series := stats.NewSeries("depth", "sunrpc_us", "soapbin_us")
	for _, depth := range structDepths(quick) {
		v := workload.NestedStruct(depth, 3)
		// The RPC proc is declared at maxDepth; re-register per depth
		// would complicate the server, so call a per-depth struct
		// against a per-depth service instead.
		perDepthSrv := sunrpc.NewServer(benchProg, benchVers)
		dt := workload.NestedStructType(depth)
		if err := perDepthSrv.Register(sunrpc.ProcDef{Proc: procObj, Arg: dt, Result: dt}, echo); err != nil {
			return err
		}
		if err := perDepthSrv.ListenAndServe("127.0.0.1:0"); err != nil {
			return err
		}
		perDepthClient := sunrpc.NewClient(perDepthSrv.Addr(), benchProg, benchVers)

		rig := newHTTPRig(depth, core.WireBinary)
		rpcUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			if _, err := perDepthClient.Call(procObj, v, dt); err != nil {
				return 0
			}
			return float64(time.Since(start)) / float64(time.Microsecond)
		})).Mean
		binUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			st, err := callStruct(rig.client, v)
			if err != nil {
				return 0
			}
			return float64(st.Total()) / float64(time.Microsecond)
		})).Mean
		rig.Close()
		perDepthClient.Close()
		perDepthSrv.Close()
		series.Add(float64(depth), rpcUS, binUS)
	}
	series.Render(w)
	return nil
}

// ---- Figure 5 (sizes table): codec costs and message sizes ----

func fig5sizes(w io.Writer, quick bool) error {
	fs := pbio.NewMemServer()
	codec := pbio.NewCodec(pbio.NewRegistry(fs))
	decoder := pbio.NewCodec(pbio.NewRegistry(fs))
	n, discard := reps(quick)

	table := stats.NewTable("workload", "pbio_B", "xml_B", "xmlz_B", "xml/pbio",
		"pbio_enc_us", "pbio_dec_us", "xml_enc_us", "xml_dec_us", "deflate_us")

	measure := func(label string, v idl.Value) error {
		msg, err := codec.Marshal(v)
		if err != nil {
			return err
		}
		xmlB, err := xmlenc.Marshal("v", v)
		if err != nil {
			return err
		}
		xmlZ, err := core.Deflate(xmlB)
		if err != nil {
			return err
		}
		encUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			codec.Marshal(v)
			return us(start)
		})).Mean
		decUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			decoder.Unmarshal(msg)
			return us(start)
		})).Mean
		xencUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			xmlenc.Marshal("v", v)
			return us(start)
		})).Mean
		xdecUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			xmlenc.Unmarshal(xmlB, "v", v.Type)
			return us(start)
		})).Mean
		zUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			core.Deflate(xmlB)
			return us(start)
		})).Mean
		table.AddRow(label,
			fmt.Sprintf("%d", len(msg)-pbio.HeaderLen),
			fmt.Sprintf("%d", len(xmlB)),
			fmt.Sprintf("%d", len(xmlZ)),
			fmt.Sprintf("%.1f", float64(len(xmlB))/float64(len(msg)-pbio.HeaderLen)),
			fmt.Sprintf("%.1f", encUS),
			fmt.Sprintf("%.1f", decUS),
			fmt.Sprintf("%.1f", xencUS),
			fmt.Sprintf("%.1f", xdecUS),
			fmt.Sprintf("%.1f", zUS),
		)
		return nil
	}

	for _, size := range arraySizes(quick) {
		if err := measure(fmt.Sprintf("array[%d]", size), workload.IntArray(size)); err != nil {
			return err
		}
	}
	for _, depth := range structDepths(quick) {
		if err := measure(fmt.Sprintf("struct(d=%d)", depth), workload.NestedStruct(depth, 3)); err != nil {
			return err
		}
	}
	table.Render(w)
	return nil
}

func us(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Microsecond)
}

// ---- Figures 5 and 6: wire comparison over emulated links ----

func fig5(w io.Writer, quick bool) error {
	return wireComparison(w, quick, true)
}

func fig6(w io.Writer, quick bool) error {
	return wireComparison(w, quick, false)
}

// wireComparison measures the total invocation time of SOAP-bin (binary
// wire), direct XML (regular SOAP) and compressed XML over the two link
// profiles of the paper, plus — as in Figure 6's discussion — SOAP-bin
// with XML data at the application boundary (the XML→PBIO→XML conversion
// pipeline).
func wireComparison(w io.Writer, quick bool, arrays bool) error {
	n, discard := reps(quick)
	for _, link := range []netem.LinkProfile{netem.LAN100, netem.ADSL} {
		fmt.Fprintf(w, "-- link: %s --\n", link.Name)
		xLabel := "elements"
		if !arrays {
			xLabel = "depth"
		}
		series := stats.NewSeries(xLabel, "soapbin_ms", "soap_xml_ms", "soap_xmlz_ms", "soapbin_xmlapp_ms")

		var points []int
		if arrays {
			points = arraySizes(quick)
		} else {
			points = structDepths(quick)
		}
		for _, p := range points {
			depth := 2
			var v idl.Value
			if arrays {
				v = workload.IntArray(p)
			} else {
				depth = p
				v = workload.NestedStruct(p, 3)
			}
			row := make([]float64, 0, 4)
			for _, wire := range []core.WireFormat{core.WireBinary, core.WireXML, core.WireXMLDeflate} {
				rig := newSimRig(depth, wire, link)
				ms := stats.Summarize(stats.Repeat(n, discard, func() float64 {
					var st core.CallStats
					var err error
					if arrays {
						st, err = callArray(rig.client, v)
					} else {
						st, err = callStruct(rig.client, v)
					}
					if err != nil {
						return 0
					}
					return float64(st.Total()) / float64(time.Millisecond)
				})).Mean
				row = append(row, ms)
			}
			// XML application over the binary wire: conversions on both
			// ends (compatibility pipeline).
			rig := newXMLServerSimRig(depth, link)
			op := "echoArray"
			if !arrays {
				op = "echoStruct"
			}
			frag, err := xmlenc.Marshal("v", v)
			if err != nil {
				return err
			}
			ms := stats.Summarize(stats.Repeat(n, discard, func() float64 {
				res, err := rig.client.CallXML(context.Background(), op, nil, frag)
				if err != nil {
					return 0
				}
				return float64(res.Response.Stats.Total()+res.ConvertIn+res.ConvertOut) / float64(time.Millisecond)
			})).Mean
			row = append(row, ms)
			series.Add(float64(p), row...)
		}
		series.Render(w)
	}
	return nil
}

// ---- Figure 7: the three modes of operation ----

func fig7(w io.Writer, quick bool) error {
	n, discard := reps(quick)
	for _, link := range []netem.LinkProfile{netem.LAN100, netem.ADSL} {
		for _, arrays := range []bool{true, false} {
			label := "arrays"
			points := arraySizes(quick)
			if !arrays {
				label = "structs"
				points = structDepths(quick)
			}
			fmt.Fprintf(w, "-- link: %s, %s --\n", link.Name, label)
			series := stats.NewSeries("x", "highperf_ms", "interop_ms", "compat_ms")
			for _, p := range points {
				depth := 2
				var v idl.Value
				if arrays {
					v = workload.IntArray(p)
				} else {
					depth = p
					v = workload.NestedStruct(p, 3)
				}
				op := "echoArray"
				if !arrays {
					op = "echoStruct"
				}
				frag, err := xmlenc.Marshal("v", v)
				if err != nil {
					return err
				}

				// High performance: native data both ends, binary wire.
				hpRig := newSimRig(depth, core.WireBinary, link)
				hp := stats.Summarize(stats.Repeat(n, discard, func() float64 {
					var st core.CallStats
					var err error
					if arrays {
						st, err = callArray(hpRig.client, v)
					} else {
						st, err = callStruct(hpRig.client, v)
					}
					if err != nil {
						return 0
					}
					return float64(st.Total()) / float64(time.Millisecond)
				})).Mean

				// Interoperability: XML client, native server.
				ioRig := newSimRig(depth, core.WireBinary, link)
				iop := stats.Summarize(stats.Repeat(n, discard, func() float64 {
					res, err := ioRig.client.CallXML(context.Background(), op, nil, frag)
					if err != nil {
						return 0
					}
					return float64(res.Response.Stats.Total()+res.ConvertIn+res.ConvertOut) / float64(time.Millisecond)
				})).Mean

				// Compatibility: XML on both ends.
				coRig := newXMLServerSimRig(depth, link)
				co := stats.Summarize(stats.Repeat(n, discard, func() float64 {
					res, err := coRig.client.CallXML(context.Background(), op, nil, frag)
					if err != nil {
						return 0
					}
					return float64(res.Response.Stats.Total()+res.ConvertIn+res.ConvertOut) / float64(time.Millisecond)
				})).Mean

				series.Add(float64(p), hp, iop, co)
			}
			series.Render(w)
		}
	}
	return nil
}

// ---- Headline: ~15× transmission-time improvement at 1 MB ----

func headline(w io.Writer, quick bool) error {
	size := 131072 // 1MB of int payload
	if quick {
		size = 4096
	}
	v := workload.IntArray(size)

	xmlRig := newSimRig(2, core.WireXML, netem.ADSL)
	binRig := newSimRig(2, core.WireBinary, netem.ADSL)
	xmlStats, err := callArray(xmlRig.client, v)
	if err != nil {
		return err
	}
	binStats, err := callArray(binRig.client, v)
	if err != nil {
		return err
	}
	table := stats.NewTable("protocol", "request_B", "response_B", "tx_ms", "total_ms")
	for _, row := range []struct {
		name string
		st   core.CallStats
	}{{"SOAP (XML)", xmlStats}, {"SOAP-bin", binStats}} {
		table.AddRow(row.name,
			fmt.Sprintf("%d", row.st.RequestBytes),
			fmt.Sprintf("%d", row.st.ResponseBytes),
			fmt.Sprintf("%.1f", float64(row.st.RoundTripTime)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(row.st.Total())/float64(time.Millisecond)),
		)
	}
	table.Render(w)
	fmt.Fprintf(w, "transmission-time improvement: %.1fx\n",
		float64(xmlStats.RoundTripTime)/float64(binStats.RoundTripTime))
	return nil
}
