package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/soap"
)

// Span layers. One call produces at most one span of each layer, which is
// what lets the report index span durations by call sequence number.
const (
	layerQualityClient = iota // around quality.Client.Call (root on quality_image_wan)
	layerCoreClient           // around core.Client.Call (root elsewhere; rebuilt from CallStats under a quality client)
	layerClientEncode         // CallStats.MarshalTime, placed before the transport span
	layerClientDecode         // CallStats.UnmarshalTime, placed after it
	layerTransport            // around Transport.RoundTrip
	layerLink                 // the modelled link delay inside the transport span
	layerFront                // around Front.Process
	layerServer               // around Server.Process / Server.ServeHTTP
	layerQualityMW            // around the quality middleware
	layerHandler              // around the application handler
	numLayers
)

var layerNames = [numLayers]string{
	"quality.client", "core.client", "core.client.encode", "core.client.decode",
	"core.transport", "link", "front", "core.server", "quality.middleware", "handler",
}

// callHeader is the soap.Header entry that carries a traced call's sequence
// number to the server side.
const callHeader = "bench-call"

type span struct {
	layer      uint8
	kind       uint8  // payload kind of the call; set on root spans
	call       uint32 // call sequence number, shared by every span of one call
	parent     uint32 // span id; 0 on roots and until resolveParents links the hops
	start, end int64  // ns since the tracer's epoch
}

// tracer is a preallocated in-memory span buffer (off the Go heap, see
// offHeap). Span ids are slot index + 1. Slots are reserved with one atomic
// add and written by exactly one goroutine; committed orders those writes
// before the reads made after the run.
type tracer struct {
	epoch     time.Time
	spans     []span
	free      func()
	reserved  atomic.Uint32
	committed atomic.Uint32
	dropped   atomic.Uint32
}

func newTracer(capacity int) (*tracer, error) {
	spans, free, err := offHeap[span](capacity)
	if err != nil {
		return nil, err
	}
	return &tracer{epoch: time.Now(), spans: spans, free: free}, nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve returns a fresh span id, or 0 when the buffer is full.
func (t *tracer) reserve() uint32 {
	id := t.reserved.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	return id
}

func (t *tracer) set(id uint32, s span) {
	if id == 0 {
		return
	}
	t.spans[id-1] = s
	t.committed.Add(1)
}

// recorded returns the committed spans. Call it only after the traced rig
// is closed and its callers have returned.
func (t *tracer) recorded() []span {
	t.committed.Load()
	n := int(t.reserved.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// clientTrace travels in the caller's ctx to the transport wrappers.
type clientTrace struct {
	call   uint32
	cur    uint32 // span id new client-side spans hang under
	tStart int64  // transport span bounds, read back by the caller
	tEnd   int64
}

type clientTraceKey struct{}

// serverTrace travels in the ctx that Process passes down to the handlers.
// The Processor wrapper cannot see the call number (the envelope is still
// encoded), so the first handler wrapper fills it in from the header.
type serverTrace struct {
	call uint32
	cur  uint32
}

type serverTraceKey struct{}

type tracedTransport struct {
	inner core.Transport
	tr    *tracer
}

func (t *tracedTransport) RoundTrip(ctx context.Context, req *core.WireRequest) (*core.WireResponse, error) {
	ct, _ := ctx.Value(clientTraceKey{}).(*clientTrace)
	if ct == nil {
		return t.inner.RoundTrip(ctx, req)
	}
	id, parent := t.tr.reserve(), ct.cur
	ct.cur = id
	start := t.tr.now()
	resp, err := t.inner.RoundTrip(ctx, req)
	end := t.tr.now()
	ct.cur, ct.tStart, ct.tEnd = parent, start, end
	t.tr.set(id, span{layer: layerTransport, call: ct.call, parent: parent, start: start, end: end})
	return resp, err
}

// PooledResponseBodies keeps the client's buffer recycling as it is without
// the wrapper.
func (t *tracedTransport) PooledResponseBodies() bool { return pooledBodies(t.inner) }

func pooledBodies(t core.Transport) bool {
	pt, ok := t.(core.PooledBodyTransport)
	return ok && pt.PooledResponseBodies()
}

// tracedProcessor records a span around a core.Processor: a Server, or a
// Front when sniff is set (a front forwards the envelope undecoded, so the
// call number is read off the wire).
type tracedProcessor struct {
	inner core.Processor
	tr    *tracer
	layer uint8
	sniff bool
}

func (p *tracedProcessor) Process(ctx context.Context, contentType, action string, body []byte) (string, []byte) {
	st := &serverTrace{cur: p.tr.reserve()}
	if p.sniff {
		st.call = sniffCall(body)
	}
	id := st.cur
	start := p.tr.now()
	rct, rbody := p.inner.Process(context.WithValue(ctx, serverTraceKey{}, st), contentType, action, body)
	p.tr.set(id, span{layer: p.layer, call: st.call, start: start, end: p.tr.now()})
	return rct, rbody
}

// tracedHTTP is tracedProcessor for the HTTP binding.
func tracedHTTP(tr *tracer, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := &serverTrace{cur: tr.reserve()}
		id := st.cur
		start := tr.now()
		inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), serverTraceKey{}, st)))
		tr.set(id, span{layer: layerServer, call: st.call, start: start, end: tr.now()})
	})
}

// traceHandler records a span around a handler (or a middleware around
// one). With a nil tracer it returns h itself.
func traceHandler(tr *tracer, layer uint8, h core.HandlerFunc) core.HandlerFunc {
	if tr == nil {
		return h
	}
	return func(c *core.CallCtx, params []soap.Param) (idl.Value, error) {
		st, _ := c.Context().Value(serverTraceKey{}).(*serverTrace)
		n, err := strconv.ParseUint(c.RequestHeader[callHeader], 10, 32)
		if st == nil || err != nil {
			return h(c, params) // an untraced call (set-up, warm-up)
		}
		st.call = uint32(n)
		id, parent := tr.reserve(), st.cur
		st.cur = id
		start := tr.now()
		v, herr := h(c, params)
		end := tr.now()
		st.cur = parent
		tr.set(id, span{layer: layer, call: st.call, parent: parent, start: start, end: end})
		return v, herr
	}
}

// sniffCall reads the callHeader entry of a binary request envelope without
// decoding parameters: kind byte, op, then the header as a count and
// length-prefixed key/value pairs (internal/core/wire.go).
func sniffCall(body []byte) uint32 {
	str := func(b []byte) (string, []byte, bool) {
		if len(b) < 2 {
			return "", nil, false
		}
		n := int(binary.BigEndian.Uint16(b))
		if len(b) < 2+n {
			return "", nil, false
		}
		return string(b[2 : 2+n]), b[2+n:], true
	}
	if len(body) < 1 {
		return 0
	}
	_, rest, ok := str(body[1:])
	if !ok || len(rest) < 2 {
		return 0
	}
	entries := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	for i := 0; i < entries; i++ {
		var k, v string
		if k, rest, ok = str(rest); !ok {
			return 0
		}
		if v, rest, ok = str(rest); !ok {
			return 0
		}
		if k == callHeader {
			n, _ := strconv.ParseUint(v, 10, 32)
			return uint32(n)
		}
	}
	return 0
}

// lastCall is the highest call number among spans.
func lastCall(spans []span) uint32 {
	var last uint32
	for _, s := range spans {
		last = max(last, s.call)
	}
	return last
}

// resolveParents links the spans that start a new hop: a front span hangs
// under its call's transport span, a server span under the front span if the
// call crossed one and under the transport span otherwise. Spans of untraced
// calls (call 0: probes, warm-up) are dropped.
func resolveParents(spans []span) []span {
	maxCall := lastCall(spans)
	transport := make([]uint32, maxCall+1)
	frontSpan := make([]uint32, maxCall+1)
	for i, s := range spans {
		switch s.layer {
		case layerTransport:
			transport[s.call] = uint32(i + 1)
		case layerFront:
			frontSpan[s.call] = uint32(i + 1)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.layer == layerFront:
			s.parent = transport[s.call]
		case s.layer == layerServer && frontSpan[s.call] != 0:
			s.parent = frontSpan[s.call]
		case s.layer == layerServer:
			s.parent = transport[s.call]
		}
	}
	return spans
}

type spanRecord struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Call   uint32 `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes one JSON object per span of a traced call.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if s.call == 0 {
			continue
		}
		rec := spanRecord{ID: uint32(i + 1), Parent: s.parent, Call: s.call, Name: layerNames[s.layer], Start: s.start, End: s.end}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

// codecCost is the isolated codec time of one payload kind, per side.
type codecCost struct{ client, server float64 } // ns

// Columns of one call's row in layerBreakdown.
const (
	colCodec = iota
	colCoreClient
	colTransport
	colCoreServer
	colFront
	colQuality
	colHandler
	colLink
	colWall
	numCols
)

// breakdown is where the time of the typical traced call goes: the mean
// self time per layer, in µs, over the calls between the 40th and the 60th
// percentile of wall time. A call's layers add up to its wall time, so the
// layers of this band add up to about the median call.
type breakdown struct {
	calls int // complete traced calls
	self  [numCols]float64
	p50   float64 // median wall time of the traced calls
}

// named is the time the named layers account for.
func (b breakdown) named() float64 {
	sum := 0.0
	for _, v := range b.self[:colWall] {
		sum += v
	}
	return sum
}

// layerBreakdown computes each call's per-layer self time from its spans.
// The codec is not a span of its own — it runs inside core.Client.Call and
// Server.Process — so its isolated cost (costs, by payload kind) is taken out
// of the stage that contains it, capped at that stage's measured length: the
// client's encode+decode stages, and Server.Process minus the handler. What
// is left of those stages stays with core.client and core.server.
func layerBreakdown(spans []span, costs []codecCost) (breakdown, error) {
	maxCall := lastCall(spans)
	dur := make([][numLayers]int64, maxCall+1)
	kind := make([]uint8, maxCall+1)
	for _, s := range spans {
		dur[s.call][s.layer] = s.end - s.start
		if s.parent == 0 && (s.layer == layerCoreClient || s.layer == layerQualityClient) {
			kind[s.call] = s.kind
		}
	}
	var rows [][numCols]float64
	for c := uint32(1); c <= maxCall; c++ {
		d := dur[c]
		if d[layerCoreClient] == 0 || d[layerTransport] == 0 || d[layerServer] == 0 || d[layerHandler] == 0 {
			continue // a failed call, or one that straddled the end of the run
		}
		wall := d[layerCoreClient]
		var quality int64
		if d[layerQualityClient] != 0 {
			wall = d[layerQualityClient]
			quality = wall - d[layerCoreClient] + d[layerQualityMW] - d[layerHandler]
		}
		outerHandler := d[layerHandler]
		if d[layerQualityMW] != 0 {
			outerHandler = d[layerQualityMW]
		}
		cost := costs[kind[c]]
		clientCodec := min(cost.client, float64(d[layerClientEncode]+d[layerClientDecode]))
		serverCodec := min(cost.server, float64(d[layerServer]-outerHandler))
		beyond := d[layerServer] // what the transport span holds besides wire, framing and queueing
		var frontSelf int64
		if d[layerFront] != 0 {
			beyond = d[layerFront]
			frontSelf = d[layerFront] - d[layerServer]
		}
		rows = append(rows, [numCols]float64{
			colCodec:      clientCodec + serverCodec,
			colCoreClient: float64(d[layerCoreClient]-d[layerTransport]) - clientCodec,
			colTransport:  float64(d[layerTransport] - d[layerLink] - beyond),
			colCoreServer: float64(d[layerServer]-outerHandler) - serverCodec,
			colFront:      float64(frontSelf),
			colQuality:    float64(quality),
			colHandler:    float64(d[layerHandler]),
			colLink:       float64(d[layerLink]),
			colWall:       float64(wall),
		})
	}
	if len(rows) == 0 {
		return breakdown{}, fmt.Errorf("trace holds no complete call")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][colWall] < rows[j][colWall] })
	b := breakdown{calls: len(rows), p50: rows[(len(rows)-1)/2][colWall] / 1e3}
	band := rows[len(rows)*2/5 : len(rows)*3/5+1]
	for _, row := range band {
		for i, v := range row {
			b.self[i] += v / 1e3 / float64(len(band))
		}
	}
	return b, nil
}
