package bench

import (
	"io"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/stats"
	"soapbinq/internal/sunrpc"
	"soapbinq/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablation-transport",
		Title: "Ablation: HTTP vs raw TCP transport for SOAP-bin (the Fig. 4b gap)",
		Run:   ablationTransport,
	})
}

// ablationTransport isolates the paper's explanation for Figure 4b — "the
// delay is mainly due to SOAP-bin's use of HTTP for its transactions" —
// by running the same nested-struct echo over Sun RPC, SOAP-bin on raw
// framed TCP, and SOAP-bin on HTTP, all over real localhost sockets.
func ablationTransport(w io.Writer, quick bool) error {
	n, discard := reps(quick)
	series := stats.NewSeries("depth", "sunrpc_us", "soapbin_tcp_us", "soapbin_http_us")

	for _, depth := range structDepths(quick) {
		v := workload.NestedStruct(depth, 3)
		dt := workload.NestedStructType(depth)

		// Sun RPC.
		rpcSrv := sunrpc.NewServer(benchProg, benchVers)
		if err := rpcSrv.Register(sunrpc.ProcDef{Proc: procObj, Arg: dt, Result: dt},
			func(arg idl.Value) (idl.Value, error) { return arg, nil }); err != nil {
			return err
		}
		if err := rpcSrv.ListenAndServe("127.0.0.1:0"); err != nil {
			return err
		}
		rpcClient := sunrpc.NewClient(rpcSrv.Addr(), benchProg, benchVers)
		rpcUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			start := time.Now()
			if _, err := rpcClient.Call(procObj, v, dt); err != nil {
				return 0
			}
			return us(start)
		})).Mean
		rpcClient.Close()
		rpcSrv.Close()

		// SOAP-bin over raw TCP.
		fs := pbio.NewMemServer()
		spec := echoSpec(depth)
		srv := newEchoServer(spec, fs)
		ln, err := core.ServeTCP(srv, "127.0.0.1:0")
		if err != nil {
			return err
		}
		tcpTransport := core.NewTCPPoolTransport(ln.Addr(), 1)
		tcpClient := core.NewClient(spec, tcpTransport, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)
		tcpUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			st, err := callStruct(tcpClient, v)
			if err != nil {
				return 0
			}
			return float64(st.Total()) / float64(time.Microsecond)
		})).Mean
		tcpTransport.Close()
		ln.Close()

		// SOAP-bin over HTTP.
		httpR := newHTTPRig(depth, core.WireBinary)
		httpUS := stats.Summarize(stats.Repeat(n, discard, func() float64 {
			st, err := callStruct(httpR.client, v)
			if err != nil {
				return 0
			}
			return float64(st.Total()) / float64(time.Microsecond)
		})).Mean
		httpR.Close()

		series.Add(float64(depth), rpcUS, tcpUS, httpUS)
	}
	series.Render(w)
	return nil
}
