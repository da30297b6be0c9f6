package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/front"
	"soapbinq/internal/idl"
	"soapbinq/internal/imaging"
	"soapbinq/internal/pbio"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
	"soapbinq/internal/workload"
)

// Load shape shared by every workload: closed loop, numCallers callers, and
// connection pools capped at poolConns, on a 2-core machine.
const (
	numCallers = 2
	poolConns  = 2
)

const (
	structDepth = 4
	structItems = 4
	bulkInts    = 65536
	mixedInts   = 2048
	imageW      = 160
	imageH      = 120
	imageNames  = 2
)

// frontRetryBudget is the router's failover token bucket; what is missing
// from it after a run was spent on failovers.
const frontRetryBudget = 32

// qualityTarget is both the policy boundary and the response-time target of
// quality_image_wan.
const qualityTarget = 30 * time.Millisecond

const qualityPolicyText = `
attribute rtt
default Image640
0 30ms Image640
30ms inf Image320
handler Image320 resizeHalf
`

// workloadDef names one workload. target is the response time a call must
// meet to count in in_target_share.
type workloadDef struct {
	name   string
	why    string
	target time.Duration
	build  func(seed uint64, tr *tracer) (*rig, error)
}

var workloads = []workloadDef{
	{"small_struct_mux",
		"630 B struct echo, binary wire, mux TCP: per-message overhead is nearly all of the call and the codec almost none",
		time.Millisecond, buildSmallStructMux},
	{"small_struct_front",
		"the same calls through front.Front over 2 backends: the only workload where the router hop runs",
		time.Millisecond, buildSmallStructFront},
	{"bulk_array_pbio",
		"512 KB int-array echo, binary wire, mux TCP: pbio plans and the idl.Value list representation do nearly all the work",
		30 * time.Millisecond, buildBulkArray},
	{"xml_http_mixed",
		"XML wire over HTTP, seeded 3:1 mix of struct and 2048-int array echo: xmlenc, soap and net/http work, pbio does not",
		20 * time.Millisecond, buildXMLMixed},
	{"quality_image_wan",
		"imaging service behind the quality loop over a modelled link stepping between 32 and 8 Mbit/s: selection and handlers decide the result",
		qualityTarget, buildQualityImage},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// rpcClient is the call surface core.Client and quality.Client share.
type rpcClient interface {
	Call(ctx context.Context, op string, hdr soap.Header, params ...soap.Param) (*core.Response, error)
}

// reply is one form a call's reply can take.
type reply struct {
	// value builds what the server sends, for the codec measurements. It is
	// built on demand: a workload's live heap sets its collection rate, and
	// an image reply is megabytes of idl.Value.
	value func() idl.Value
	full  bool         // the full-quality message type
	rule  quality.Rule // policy interval of the message type, if quality-managed
}

// maxVariants bounds len(callKind.replies).
const maxVariants = 2

// callKind is one kind of call a workload makes: what is sent, the forms the
// reply can take (one, or full and downgraded under quality management), and
// how a reply is checked.
type callKind struct {
	op      string
	params  []soap.Param
	replies []reply
	// check verifies a reply and reports which of replies it was; deep asks
	// for full equality, not the fingerprint.
	check func(resp *core.Response, deep bool) (variant uint8, err error)
}

// rig is one built workload: servers, router and clients on loopback TCP.
type rig struct {
	wire    core.WireFormat
	kinds   []callKind
	clients [numCallers]rpcClient
	// next picks the kind of caller c's n-th call.
	next    func(c int, n uint64) uint8
	tr      *tracer
	closers []func()

	servers   []*core.Server
	listeners []*countingListener
	front     *front.Front
	// manager is set when the clients are quality.Clients, whose inner
	// core.Client span is rebuilt from CallStats.
	manager  *quality.Manager
	qclients []*quality.Client
	// linkOrigin is when the bandwidth schedule's cycle starts, as ns
	// since procStart.
	linkOrigin *atomic.Int64
}

var procStart = time.Now()

// shareClient makes every caller use c, as threads of one application would.
func (r *rig) shareClient(c rpcClient) {
	for i := range r.clients {
		r.clients[i] = c
	}
}

// reply is the form of reply a sample's or span's flattened kind names.
func (r *rig) reply(flat uint8) reply {
	return r.kinds[flat/maxVariants].replies[flat%maxVariants]
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

func (r *rig) listen() (*countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &countingListener{Listener: ln}
	r.listeners = append(r.listeners, cl)
	return cl, nil
}

// serveTCP serves proc on a loopback port, under a span of layer when tracing.
func (r *rig) serveTCP(proc core.Processor, layer uint8) (string, error) {
	ln, err := r.listen()
	if err != nil {
		return "", err
	}
	if r.tr != nil {
		proc = &tracedProcessor{inner: proc, tr: r.tr, layer: layer, sniff: layer == layerFront}
	}
	tl := core.ServeTCPListener(proc, ln)
	r.closers = append(r.closers, func() { tl.Close() })
	return tl.Addr(), nil
}

// muxTransport returns a pooled mux transport to addr, under a span when
// tracing.
func (r *rig) muxTransport(addr string) core.Transport {
	tp := core.NewTCPPoolTransport(addr, poolConns)
	r.closers = append(r.closers, func() { tp.Close() })
	return r.traced(tp)
}

func (r *rig) traced(t core.Transport) core.Transport {
	if r.tr == nil {
		return t
	}
	return &tracedTransport{inner: t, tr: r.tr}
}

func echoSpec() *core.ServiceSpec {
	return core.MustServiceSpec("Bench",
		&core.OpDef{
			Name:       "echoStruct",
			Params:     []soap.ParamSpec{{Name: "v", Type: workload.NestedStructType(structDepth)}},
			Result:     workload.NestedStructType(structDepth),
			Idempotent: true,
		},
		&core.OpDef{
			Name:       "echoArray",
			Params:     []soap.ParamSpec{{Name: "v", Type: workload.IntArrayType()}},
			Result:     workload.IntArrayType(),
			Idempotent: true,
		},
	)
}

func (r *rig) echoServer(spec *core.ServiceSpec, fs *pbio.MemServer) *core.Server {
	srv := core.NewServer(spec, pbio.NewCodec(pbio.NewRegistry(fs)))
	echo := traceHandler(r.tr, layerHandler, func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		return params[0].Value, nil
	})
	srv.MustHandle("echoStruct", echo)
	srv.MustHandle("echoArray", echo)
	r.servers = append(r.servers, srv)
	return srv
}

// seededStruct is workload.NestedStruct with its numbers redrawn from seed.
// Digit counts are fixed so the XML size does not depend on the seed.
func seededStruct(seed uint64) idl.Value {
	rng := rand.New(rand.NewSource(int64(seed)))
	v := workload.NestedStruct(structDepth, structItems)
	var redraw func(v *idl.Value)
	redraw = func(v *idl.Value) {
		switch v.Type.Kind {
		case idl.KindInt:
			v.Int = 1000 + rng.Int63n(9000)
		case idl.KindFloat:
			v.Float = float64(100+rng.Intn(900)) + 0.25
		case idl.KindList:
			for i := range v.List {
				redraw(&v.List[i])
			}
		case idl.KindStruct:
			for i := range v.Fields {
				redraw(&v.Fields[i])
			}
		}
	}
	redraw(&v)
	return v
}

// seededArray is an n-element int array of five-digit numbers drawn from seed.
func seededArray(seed uint64, n int) idl.Value {
	rng := rand.New(rand.NewSource(int64(seed)))
	v := workload.IntArray(n)
	for i := range v.List {
		v.List[i].Int = 10000 + rng.Int63n(90000)
	}
	return v
}

// structKind is an echoStruct call of want. Its fingerprint walks the child
// chain comparing four leaves per level: 16 values for depth 4.
func structKind(want idl.Value) callKind {
	leaf := func(v idl.Value) [4]float64 {
		id, _ := v.Field("id")
		price, _ := v.Field("price")
		items, _ := v.Field("items")
		var qty int64
		if len(items.List) > 0 {
			q, _ := items.List[0].Field("qty")
			qty = q.Int
		}
		return [4]float64{float64(id.Int), price.Float, float64(len(items.List)), float64(qty)}
	}
	return callKind{
		op:      "echoStruct",
		params:  []soap.Param{{Name: "v", Value: want}},
		replies: []reply{{value: func() idl.Value { return want }, full: true}},
		check: func(resp *core.Response, deep bool) (uint8, error) {
			if deep {
				if !resp.Value.Equal(want) {
					return 0, fmt.Errorf("echoStruct: reply differs from request")
				}
				return 0, nil
			}
			got, exp := resp.Value, want
			for {
				if got.Type == nil || leaf(got) != leaf(exp) {
					return 0, fmt.Errorf("echoStruct: fingerprint mismatch")
				}
				child, ok := exp.Field("child")
				if !ok {
					return 0, nil
				}
				exp = child
				got, _ = got.Field("child")
			}
		},
	}
}

// arrayKind is an echoArray call of want, fingerprinted by its length and 16
// strided elements.
func arrayKind(want idl.Value) callKind {
	return callKind{
		op:      "echoArray",
		params:  []soap.Param{{Name: "v", Value: want}},
		replies: []reply{{value: func() idl.Value { return want }, full: true}},
		check: func(resp *core.Response, deep bool) (uint8, error) {
			got := resp.Value.List
			if len(got) != len(want.List) {
				return 0, fmt.Errorf("echoArray: %d elements, want %d", len(got), len(want.List))
			}
			stride := len(got) / 16
			if deep {
				stride = 1
			}
			for i := 0; i < len(got); i += stride {
				if got[i].Int != want.List[i].Int {
					return 0, fmt.Errorf("echoArray: element %d is %d, want %d", i, got[i].Int, want.List[i].Int)
				}
			}
			return 0, nil
		},
	}
}

func oneKind(int, uint64) uint8 { return 0 }

// mix64 is the splitmix64 finalizer: a cheap seeded hash for choices made
// inside the timed loop.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// buildEchoMux is the shared shape of the direct binary mux workloads.
func buildEchoMux(tr *tracer, kind callKind) (*rig, error) {
	r := &rig{wire: core.WireBinary, tr: tr, kinds: []callKind{kind}, next: oneKind}
	fs := pbio.NewMemServer()
	spec := echoSpec()
	addr, err := r.serveTCP(r.echoServer(spec, fs), layerServer)
	if err != nil {
		r.close()
		return nil, err
	}
	r.shareClient(core.NewClient(spec, r.muxTransport(addr), pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary))
	return r, nil
}

func buildSmallStructMux(seed uint64, tr *tracer) (*rig, error) {
	return buildEchoMux(tr, structKind(seededStruct(seed)))
}

func buildBulkArray(seed uint64, tr *tracer) (*rig, error) {
	return buildEchoMux(tr, arrayKind(seededArray(seed, bulkInts)))
}

func buildSmallStructFront(seed uint64, tr *tracer) (*rig, error) {
	r := &rig{wire: core.WireBinary, tr: tr, kinds: []callKind{structKind(seededStruct(seed))}, next: oneKind}
	fs := pbio.NewMemServer()
	spec := echoSpec()
	f := front.New(front.Config{Spec: spec, PoolConns: poolConns, RetryBudget: frontRetryBudget})
	r.front = f
	r.closers = append(r.closers, f.Close)
	for i := 0; i < 2; i++ {
		addr, err := r.serveTCP(r.echoServer(spec, fs), layerServer)
		if err == nil {
			err = f.Join("b"+strconv.Itoa(i), addr)
		}
		if err != nil {
			r.close()
			return nil, err
		}
	}
	f.Start()
	addr, err := r.serveTCP(f, layerFront)
	if err != nil {
		r.close()
		return nil, err
	}
	r.shareClient(core.NewClient(spec, r.muxTransport(addr), pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary))
	return r, nil
}

func buildXMLMixed(seed uint64, tr *tracer) (*rig, error) {
	r := &rig{wire: core.WireXML, tr: tr, kinds: []callKind{
		structKind(seededStruct(seed)),
		arrayKind(seededArray(seed, mixedInts)),
	}}
	// Every block of four calls holds one array call, at a seeded position:
	// the mix is 3:1 over any stretch, and its order follows the seed.
	r.next = func(c int, n uint64) uint8 {
		if mix64(seed<<24^uint64(c)<<20^n/4)%4 == n%4 {
			return 1
		}
		return 0
	}
	fs := pbio.NewMemServer()
	spec := echoSpec()
	var handler http.Handler = r.echoServer(spec, fs)
	if tr != nil {
		handler = tracedHTTP(tr, handler)
	}
	ln, err := r.listen()
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns once Close is called
	}()
	ht := &http.Transport{MaxIdleConnsPerHost: poolConns, MaxConnsPerHost: poolConns}
	r.closers = append(r.closers, func() {
		ht.CloseIdleConnections()
		hs.Close()
		<-served
	})
	transport := r.traced(&core.HTTPTransport{URL: "http://" + ln.Addr().String() + "/soap", Client: &http.Client{Transport: ht}})
	r.shareClient(core.NewClient(spec, transport, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireXML))
	return r, nil
}

// imageKind is a getImage call for name. The reply comes at either message
// type; check tells which from the sbq-mtype header and holds the reply to
// that type's dimensions, and on a deep check to the reference transform.
func imageKind(name string, reference *imaging.Store, policy *quality.Policy) (callKind, error) {
	im, err := reference.Get(name)
	if err != nil {
		return callKind{}, err
	}
	fullIm := imaging.EdgeDetect(im)
	halfIm, err := imaging.Scale(fullIm, fullIm.W/2, fullIm.H/2)
	if err != nil {
		return callKind{}, err
	}
	want := [maxVariants]*imaging.Image{fullIm, halfIm}
	return callKind{
		op: "getImage",
		params: []soap.Param{
			{Name: "name", Value: idl.StringV(name)},
			{Name: "transform", Value: idl.StringV(imaging.TransformEdge)},
		},
		replies: []reply{
			{value: func() idl.Value { return fullIm.ToValue(imaging.FullImageType) }, full: true, rule: policy.Rules[0]},
			{value: func() idl.Value { return halfIm.ToValue(imaging.HalfImageType) }, rule: policy.Rules[1]},
		},
		check: func(resp *core.Response, deep bool) (uint8, error) {
			variant := uint8(0)
			if resp.Header[core.MsgTypeHeader] == "Image320" {
				variant = 1
			}
			exp := want[variant]
			w, _ := resp.Value.Field("width")
			h, _ := resp.Value.Field("height")
			pix, _ := resp.Value.Field("pixels")
			if int(w.Int) != exp.W || int(h.Int) != exp.H || len(pix.List) != len(exp.Pix) {
				return variant, fmt.Errorf("getImage: %dx%d with %d pixel bytes, want %dx%d", w.Int, h.Int, len(pix.List), exp.W, exp.H)
			}
			if deep {
				got, err := imaging.FromValue(resp.Value)
				if err != nil {
					return variant, err
				}
				if !bytes.Equal(got.Pix, exp.Pix) {
					return variant, fmt.Errorf("getImage: pixels differ from the reference transform")
				}
			}
			return variant, nil
		},
	}, nil
}

func buildQualityImage(seed uint64, tr *tracer) (*rig, error) {
	r := &rig{wire: core.WireBinary, tr: tr, linkOrigin: new(atomic.Int64)}
	r.startCycle(0) // set-up meets the start of the cycle, the high bandwidth
	policy, err := quality.ParsePolicyString(qualityPolicyText, imaging.Types(), imaging.Handlers())
	if err != nil {
		return nil, err
	}
	reference := imaging.NewStore(imageW, imageH)
	for i := 0; i < imageNames; i++ {
		kind, err := imageKind(fmt.Sprintf("sky-%d-%d", seed, i), reference, policy)
		if err != nil {
			return nil, err
		}
		r.kinds = append(r.kinds, kind)
	}
	r.next = func(c int, n uint64) uint8 { return uint8((n + uint64(c)) % imageNames) }

	fs := pbio.NewMemServer()
	srv := core.NewServer(imaging.Spec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	r.servers = append(r.servers, srv)
	r.manager = quality.NewManager(policy, nil)
	handler := traceHandler(tr, layerHandler, imaging.NewHandler(imaging.NewStore(imageW, imageH)))
	srv.MustHandle("getImage", traceHandler(tr, layerQualityMW, r.manager.Middleware(handler)))
	addr, err := r.serveTCP(srv, layerServer)
	if err != nil {
		r.close()
		return nil, err
	}
	tp := core.NewTCPPoolTransport(addr, poolConns)
	r.closers = append(r.closers, func() { tp.Close() })
	link := &linkTransport{
		inner: tp,
		sched: newSchedule(seed),
		clock: func() time.Duration { return time.Since(procStart) - time.Duration(r.linkOrigin.Load()) },
		sleep: time.Sleep,
		tr:    tr,
	}
	// One client and estimator per caller, as two users of one service.
	for i := range r.clients {
		inner := core.NewClient(imaging.Spec(), r.traced(link), pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)
		qc := quality.NewClient(inner, policy)
		r.qclients = append(r.qclients, qc)
		r.clients[i] = qc
	}
	return r, nil
}
