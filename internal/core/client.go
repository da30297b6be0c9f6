package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/idl"
	"soapbinq/internal/obs"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/xmlenc"
)

// WireRequest is a serialized request handed to a Transport. Body is
// only valid for the duration of RoundTrip: the client recycles it into
// the bufpool once all attempts are done, so a transport must not retain
// it past return.
type WireRequest struct {
	ContentType string
	Action      string // operation name, for XML requests
	Body        []byte
}

// WireResponse is what a Transport returns.
type WireResponse struct {
	ContentType string
	Body        []byte
}

// Transport moves serialized envelopes between client and server. The two
// provided implementations are HTTPTransport (real net/http) and the
// netem package's simulated transports; tests may supply their own.
//
// RoundTrip must honor ctx: cancellation or deadline expiry aborts any
// blocking I/O promptly, and the returned error then wraps (or is)
// ctx.Err(). Implementations must not retry internally once ctx is done.
type Transport interface {
	RoundTrip(ctx context.Context, req *WireRequest) (*WireResponse, error)
}

// PooledBodyTransport is implemented by transports whose WireResponse
// bodies come from the bufpool and are handed off to the caller — the
// raw-TCP transports, whose frame reads land in pooled buffers. The
// client releases such bodies back to the pool once the response is
// decoded (every decoder copies strings out of the wire buffer, so
// nothing aliases it). Transports that return bodies with unknown
// ownership — net/http, simulators, fault-injecting wrappers — simply
// don't implement it and their bodies are left to the GC.
type PooledBodyTransport interface {
	Transport
	// PooledResponseBodies reports whether response bodies may be
	// recycled with bufpool.Put after decode.
	PooledResponseBodies() bool
}

// TimedTransport is implemented by transports that know the true duration
// of the last round trip better than a wall clock does — in particular the
// netem virtual-clock simulator, where link delay is modeled rather than
// slept. When a client's transport implements it, CallStats.RoundTripTime
// uses the reported value, and the quality layer's RTT estimation adapts
// to simulated network conditions exactly as it would to real ones.
type TimedTransport interface {
	Transport
	// LastRoundTrip reports the duration of the most recent RoundTrip.
	// It is only meaningful when calls are not interleaved, which is how
	// every benchmark and quality loop in this repository drives it.
	LastRoundTrip() time.Duration
}

// defaultHTTPClient backs HTTPTransport when no Client is configured.
// net/http's DefaultTransport keeps only 2 idle connections per host
// (DefaultMaxIdleConnsPerHost), so anything beyond 2 concurrent callers
// against one SOAP endpoint churns TCP connections — each closed and
// redialed with a fresh handshake. Backend SOAP traffic is exactly the
// many-callers-one-endpoint shape, so the shared default keeps a full
// complement of idle connections per host and lets them linger long
// enough to survive request gaps.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second, // TCP-level keep-alive probes
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64, // match the benchmark's widest fan-in
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	},
}

// HTTPTransport posts envelopes to a SOAP endpoint over HTTP.
type HTTPTransport struct {
	URL    string
	Client *http.Client // nil means a shared keep-alive-tuned client

	// MaxResponseBytes caps how much of a response body is read. Zero or
	// negative means the default, 256 MiB — the same bound the server
	// applies to requests (MaxRequestBytes). A response over the cap is a
	// transport error, not an OOM.
	MaxResponseBytes int64
}

// RoundTrip implements Transport. The request is built with ctx, so
// net/http aborts the connection attempt, the write, or the pending read
// as soon as ctx is cancelled or its deadline passes.
func (t *HTTPTransport) RoundTrip(ctx context.Context, req *WireRequest) (*WireResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.URL, bytes.NewReader(req.Body))
	if err != nil {
		return nil, fmt.Errorf("core: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", req.ContentType)
	if req.Action != "" {
		hreq.Header.Set(ActionHeader, `"`+req.Action+`"`)
	}
	client := t.Client
	if client == nil {
		client = defaultHTTPClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("core: http: %w", err)
	}
	defer resp.Body.Close()
	limit := t.MaxResponseBytes
	if limit <= 0 {
		limit = 256 << 20
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("core: read response: %w", err)
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("core: response body exceeds %d byte limit", limit)
	}
	// Fault responses use 500 but still carry a parseable envelope; other
	// statuses are transport-level failures.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		serr := &StatusError{Code: resp.StatusCode}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				serr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, serr
	}
	return &WireResponse{ContentType: resp.Header.Get("Content-Type"), Body: body}, nil
}

// StatusError is a non-SOAP HTTP response surfaced by HTTPTransport —
// typically a 503 from an overloaded or fault-injected front end. 5xx
// statuses are retriable under a CallPolicy; a Retry-After header (in
// seconds, per HTTP) is honored in place of the computed backoff.
type StatusError struct {
	Code       int
	RetryAfter time.Duration // parsed Retry-After hint; 0 when absent
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("core: http status %d", e.Code)
}

// CallStats records where one invocation spent its time and bytes — the
// quantities the paper's microbenchmarks decompose (marshalling, transport,
// unmarshalling; message sizes).
type CallStats struct {
	MarshalTime   time.Duration // request serialization (and compression)
	RoundTripTime time.Duration // transport round trip (all attempts)
	UnmarshalTime time.Duration // response deserialization
	RequestBytes  int
	ResponseBytes int
	Attempts      int // transport attempts made (>1 only under a retry policy)
}

// Total returns the end-to-end invocation cost.
func (s CallStats) Total() time.Duration {
	return s.MarshalTime + s.RoundTripTime + s.UnmarshalTime
}

// Response is the decoded result of a Call.
type Response struct {
	Value  idl.Value
	Header soap.Header
	Stats  CallStats
}

// Release hands the response's decoded value tree back to the decoder's
// slab pool. It is optional — an unreleased response is ordinary garbage
// — but on the hot path it is where most of a call's allocation goes,
// so loops that are done with a response should release it. Neither the
// response's Value nor anything reached through it may be used after
// Release; callers keeping a piece must copy it out first.
func (r *Response) Release() {
	if r == nil {
		return
	}
	pbio.Release(&r.Value)
}

// TypeResolver maps a quality message-type name (from the response header)
// to its type, letting XML-wire clients decode downgraded responses. The
// quality package provides one from its policy.
type TypeResolver func(name string) (*idl.Type, bool)

// MsgTypeHeader is the response header entry naming the quality message
// type actually used, when it differs from the declared result type.
const MsgTypeHeader = "sbq-mtype"

// Client invokes operations on a SOAP-bin service.
type Client struct {
	transport Transport
	spec      *ServiceSpec
	codec     *pbio.Codec
	wire      WireFormat

	// AllowResultVariance accepts responses whose type differs from the
	// declared result type (quality-managed downgrades). The quality
	// layer reconciles the value afterwards.
	AllowResultVariance bool

	// ResolveType decodes downgraded XML responses; unused on the binary
	// wire, where PBIO messages are self-describing.
	ResolveType TypeResolver

	// Policy bounds and hardens calls: per-call timeout, retry budget
	// with backoff for idempotent operations. Nil disables both.
	Policy *CallPolicy

	// Breaker, when set, is consulted before each transport attempt:
	// while open, calls fast-fail with a Server.Unavailable.BreakerOpen
	// fault instead of dialing a known-bad endpoint. Share one Breaker
	// per endpoint across clients.
	Breaker *Breaker
}

// NewClient builds a client for spec over the given transport and wire
// format. The codec carries the PBIO registry (and format-server
// connection) for binary wire use.
func NewClient(spec *ServiceSpec, transport Transport, codec *pbio.Codec, wire WireFormat) *Client {
	return &Client{transport: transport, spec: spec, codec: codec, wire: wire}
}

// Wire returns the client's wire format.
func (c *Client) Wire() WireFormat { return c.wire }

// Codec returns the client's PBIO codec.
func (c *Client) Codec() *pbio.Codec { return c.codec }

// Spec returns the client's service spec.
func (c *Client) Spec() *ServiceSpec { return c.spec }

// Call invokes an operation with native (idl.Value) parameters — the
// high-performance mode path when the wire format is WireBinary.
//
// The invocation is bounded by ctx end to end: the remaining budget is
// stamped on the request envelope (soap.DeadlineHeader) so the server can
// enforce it too, the transport aborts blocking I/O when ctx is done, and
// expiry surfaces as a *soap.Fault with the deadline-exceeded or
// cancelled code (matching errors.Is against context.DeadlineExceeded /
// context.Canceled). A CallPolicy on the client additionally caps the
// call with its own timeout and re-sends failed attempts of idempotent
// operations with exponential backoff.
func (c *Client) Call(ctx context.Context, op string, hdr soap.Header, params ...soap.Param) (*Response, error) {
	opDef, ok := c.spec.Op(op)
	if !ok {
		return nil, fmt.Errorf("core: unknown operation %q", op)
	}
	if p := c.Policy; p != nil && p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}

	// Tracing: adopt the caller's span (the quality layer creates one to
	// annotate its own decisions) or mint our own. Both are nil while
	// obs tracing is off, and every span method is a no-op on nil, so
	// the disabled path takes no extra branches beyond this lookup.
	span := obs.SpanFrom(ctx)
	ownSpan := false
	if span == nil {
		if span = obs.NewSpan("client", op, 0); span != nil {
			ownSpan = true
		}
	}

	resp, err := c.call(ctx, opDef, hdr, span, params)
	clientRequests.Inc()
	if err != nil {
		clientErrors.Inc()
		span.Fail(err)
	}
	if ownSpan {
		span.Finish()
	}
	return resp, err
}

// call is Call's encode → round-trip → decode core. The stage timings
// it already takes for CallStats also feed the wire histograms and the
// span, so tracing adds no clock reads here.
func (c *Client) call(ctx context.Context, opDef *OpDef, hdr soap.Header, span *obs.Span, params []soap.Param) (*Response, error) {
	start := time.Now()
	// Propagate the remaining budget and the trace ID to the server. The
	// caller's header map is copied, not mutated.
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline || span != nil {
		withExtras := make(soap.Header, len(hdr)+2)
		for k, v := range hdr {
			withExtras[k] = v
		}
		hdr = withExtras
		if span != nil {
			hdr[obs.TraceHeader] = obs.FormatTraceID(span.Trace)
		}
		if hasDeadline {
			hdr = soap.EncodeDeadline(hdr, deadline, start)
		}
	}
	req, err := c.encodeRequest(opDef, hdr, params)
	if err != nil {
		return nil, err
	}
	marshalled := time.Now()

	wresp, attempts, err := c.roundTrip(ctx, opDef, req, span)
	// All attempts are done; the request buffer (built by marshalBinary or
	// soap.Marshal into a pooled buffer) goes back to the pool either way.
	reqBytes := len(req.Body)
	bufpool.Put(req.Body)
	req.Body = nil
	if err != nil {
		// Budget expiry has one well-defined shape regardless of which
		// layer noticed first.
		if ce := ctx.Err(); ce != nil {
			if f := soap.ContextFault(ce); f != nil {
				return nil, f
			}
		}
		return nil, err
	}
	returned := time.Now()

	resp, derr := c.decodeResponse(opDef, wresp)
	respBytes := len(wresp.Body)
	if pt, ok := c.transport.(PooledBodyTransport); ok && pt.PooledResponseBodies() {
		// Decoders copy strings out of the wire buffer, so after decode
		// (successful or not) nothing references it.
		bufpool.Put(wresp.Body)
		wresp.Body = nil
	}
	if derr != nil {
		return nil, derr
	}
	done := time.Now()

	resp.Stats.MarshalTime = marshalled.Sub(start)
	resp.Stats.RoundTripTime = returned.Sub(marshalled)
	if tt, ok := c.transport.(TimedTransport); ok {
		resp.Stats.RoundTripTime = tt.LastRoundTrip()
	}
	resp.Stats.UnmarshalTime = done.Sub(returned)
	resp.Stats.RequestBytes = reqBytes
	resp.Stats.ResponseBytes = respBytes
	resp.Stats.Attempts = attempts

	wireEncodeNS.RecordDuration(resp.Stats.MarshalTime)
	wireRTTNS.RecordDuration(resp.Stats.RoundTripTime)
	wireDecodeNS.RecordDuration(resp.Stats.UnmarshalTime)
	wireRequestBytes.Record(int64(reqBytes))
	wireResponseBytes.Record(int64(respBytes))
	if span != nil {
		span.SetStage(obs.StageEncode, resp.Stats.MarshalTime)
		span.SetStage(obs.StageWait, resp.Stats.RoundTripTime)
		span.SetStage(obs.StageDecode, resp.Stats.UnmarshalTime)
		span.Annotate(c.wire.String(), resp.Header[MsgTypeHeader], 0, attempts)
	}
	return resp, nil
}

// roundTrip drives the transport, re-sending per the client's policy
// and consulting the circuit breaker (when configured) before every
// attempt. Transport-level failures are retried within the policy
// budget; a fault is a definitive answer and a done context is final —
// with one exception: a served Server.Busy fault means the request was
// shed before processing, so it is retried (honoring the server's
// Retry-After hint) even for non-idempotent operations.
func (c *Client) roundTrip(ctx context.Context, op *OpDef, req *WireRequest, span *obs.Span) (*WireResponse, int, error) {
	budget, busyBudget := 0, 0
	if p := c.Policy; p != nil && p.MaxRetries > 0 {
		// A shed request was provably not processed; re-sending is safe
		// for any operation. Other transport failures may have been
		// processed, so they keep the idempotency gate.
		busyBudget = p.MaxRetries
		if op.Idempotent || p.RetryNonIdempotent {
			budget = p.MaxRetries
		}
	}
	attempts := 0
	for {
		if b := c.Breaker; b != nil {
			if ferr := b.Allow(); ferr != nil {
				return nil, attempts, ferr
			}
		}
		wresp, err := c.transport.RoundTrip(ctx, req)
		attempts++
		var served *soap.Fault
		if err == nil {
			served = c.sniffFault(wresp)
		}
		if b := c.Breaker; b != nil {
			if served != nil {
				b.Record(served)
			} else {
				b.Record(err)
			}
		}
		if err == nil {
			if served == nil || served.Code != soap.FaultCodeBusy || attempts > busyBudget {
				return wresp, attempts, nil
			}
			// Shed: sleep per the server's hint (else backoff) and re-send.
			c.noteRetry(op, span, attempts, "busy fault")
			delay := c.Policy.backoff(attempts)
			if hint, ok := soap.RetryAfterHint(served); ok {
				delay = hint
			}
			if serr := sleepCtx(ctx, delay); serr != nil {
				return nil, attempts, serr
			}
			continue
		}
		if attempts > budget || !retriable(err) {
			return nil, attempts, err
		}
		c.noteRetry(op, span, attempts, err.Error())
		delay := c.Policy.backoff(attempts)
		if hint, ok := retryAfterHint(err); ok {
			delay = hint
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return nil, attempts, serr
		}
	}
}

// noteRetry counts a re-send decision and, when tracing is on, records
// it in the decision-event ring with the cause and the attempt number.
func (c *Client) noteRetry(op *OpDef, span *obs.Span, attempt int, cause string) {
	clientRetries.Inc()
	if obs.Enabled() {
		ev := obs.Event{
			Kind:     obs.EventRetry,
			Side:     "client",
			Op:       op.Name,
			Attempts: attempt,
			Detail:   cause,
		}
		if span != nil {
			ev.Trace = obs.FormatTraceID(span.Trace)
		}
		obs.Emit(ev)
	}
}

// sniffFault decodes the fault envelope in wresp, if it is one, so the
// retry loop and breaker can see served faults (busy, deadline) before
// the full response decode. Deflate bodies are not inspected — matching
// isFaultBody, an inflate per response is not worth it.
func (c *Client) sniffFault(wresp *WireResponse) *soap.Fault {
	if wresp == nil || !isFaultBody(wresp.ContentType, wresp.Body) {
		return nil
	}
	switch wresp.ContentType {
	case ContentTypeBinary:
		env, err := unmarshalBinary(c.codec, wresp.Body)
		if err != nil || env.Kind != frameFault {
			return nil
		}
		return env.Fault
	default:
		// XML: Parse surfaces a fault envelope as its error regardless
		// of the operation spec.
		if _, err := soap.Parse(wresp.Body, soap.OpSpec{}); err != nil {
			var f *soap.Fault
			if errors.As(err, &f) {
				return f
			}
		}
		return nil
	}
}

// retryAfterHint pulls a retry hint out of either hint carrier: a SOAP
// fault's Detail field or an HTTP StatusError's Retry-After header.
func retryAfterHint(err error) (time.Duration, bool) {
	if d, ok := soap.RetryAfterHint(err); ok {
		return d, true
	}
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter, true
	}
	return 0, false
}

func (c *Client) encodeRequest(op *OpDef, hdr soap.Header, params []soap.Param) (*WireRequest, error) {
	switch c.wire {
	case WireBinary:
		body, err := marshalBinary(c.codec, frameRequest, op.Name, hdr, params)
		if err != nil {
			return nil, err
		}
		return &WireRequest{ContentType: ContentTypeBinary, Body: body}, nil
	case WireXML, WireXMLDeflate:
		body, err := soap.Marshal(&soap.Message{Op: op.Name, Params: params, Header: hdr})
		if err != nil {
			return nil, err
		}
		ct := ContentTypeXML
		if c.wire == WireXMLDeflate {
			xml := body
			body, err = Deflate(xml)
			bufpool.Put(xml) // compressed copy replaces the XML buffer
			if err != nil {
				return nil, err
			}
			ct = ContentTypeXMLDeflate
		}
		return &WireRequest{ContentType: ct, Action: op.Name, Body: body}, nil
	default:
		return nil, fmt.Errorf("core: unsupported wire format %v", c.wire)
	}
}

func (c *Client) decodeResponse(op *OpDef, wresp *WireResponse) (*Response, error) {
	switch wresp.ContentType {
	case ContentTypeBinary:
		env, err := unmarshalBinary(c.codec, wresp.Body)
		if err != nil {
			return nil, err
		}
		if env.Kind == frameFault {
			return nil, env.Fault
		}
		if env.Kind != frameResponse {
			return nil, fmt.Errorf("core: unexpected frame kind %d", env.Kind)
		}
		resp := &Response{Header: env.Header}
		if op.Result == nil && len(env.Params) == 0 {
			return resp, nil
		}
		v, ok := findParam(env.Params, ResultParam)
		if !ok {
			return nil, fmt.Errorf("core: response without %q parameter", ResultParam)
		}
		if !c.AllowResultVariance && (op.Result == nil || !v.Type.Equal(op.Result)) {
			return nil, fmt.Errorf("core: result type %s, want %s", v.Type, op.Result)
		}
		resp.Value = v
		return resp, nil
	case ContentTypeXML, ContentTypeXMLDeflate, "text/xml":
		body := wresp.Body
		if wresp.ContentType == ContentTypeXMLDeflate {
			var err error
			if body, err = Inflate(body, 0); err != nil {
				return nil, err
			}
		}
		return c.decodeXMLResponse(op, body)
	default:
		return nil, fmt.Errorf("core: unsupported response content type %q", wresp.ContentType)
	}
}

func (c *Client) decodeXMLResponse(op *OpDef, body []byte) (*Response, error) {
	resultType := op.Result
	// A quality-managed server names the substituted message type in the
	// header; peek at it before schema-driven parsing.
	if c.AllowResultVariance && c.ResolveType != nil {
		if name, ok := peekHeaderEntry(body, MsgTypeHeader); ok {
			if t, found := c.ResolveType(name); found {
				resultType = t
			} else {
				return nil, fmt.Errorf("core: response uses unknown message type %q", name)
			}
		}
	}
	spec := soap.OpSpec{Op: op.ResponseOp()}
	if resultType != nil {
		spec.Params = []soap.ParamSpec{{Name: ResultParam, Type: resultType}}
	}
	msg, err := soap.Parse(body, spec)
	if err != nil {
		var f *soap.Fault
		if errors.As(err, &f) {
			return nil, f
		}
		return nil, err
	}
	resp := &Response{Header: msg.Header}
	if len(msg.Params) > 0 {
		resp.Value = msg.Params[0].Value
	}
	return resp, nil
}

// peekHeaderEntry extracts one header entry value from a serialized XML
// envelope without a full parse (the full parse needs the result type,
// which depends on this very entry).
func peekHeaderEntry(body []byte, key string) (string, bool) {
	marker := []byte(`<entry name="` + key + `">`)
	i := bytes.Index(body, marker)
	if i < 0 {
		return "", false
	}
	rest := body[i+len(marker):]
	j := bytes.IndexByte(rest, '<')
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}

// XMLCallResult is what CallXML returns: the response as an XML fragment
// plus the underlying response and the client-side conversion costs (the
// "just in time" conversions of interoperability/compatibility mode).
type XMLCallResult struct {
	XML      []byte // result fragment rooted at <return>, nil for void ops
	Response *Response
	// ConvertIn is the XML→binary time for request parameters;
	// ConvertOut the binary→XML time for the result.
	ConvertIn  time.Duration
	ConvertOut time.Duration
}

// CallXML invokes an operation for an XML-native application: request
// parameters arrive as XML fragments (each rooted at an element named
// after the parameter), are down-converted to binary for transport, and
// the result is up-converted back to XML. Combined with WireBinary this
// is the paper's compatibility mode; the conversions are exactly the costs
// Figure 6 charges against SOAP-bin.
func (c *Client) CallXML(ctx context.Context, op string, hdr soap.Header, xmlParams ...[]byte) (*XMLCallResult, error) {
	opDef, ok := c.spec.Op(op)
	if !ok {
		return nil, fmt.Errorf("core: unknown operation %q", op)
	}
	if len(xmlParams) != len(opDef.Params) {
		return nil, fmt.Errorf("core: operation %s: got %d parameters, want %d", op, len(xmlParams), len(opDef.Params))
	}

	start := time.Now()
	params := make([]soap.Param, len(xmlParams))
	for i, frag := range xmlParams {
		ps := opDef.Params[i]
		v, err := xmlenc.Unmarshal(frag, ps.Name, ps.Type)
		if err != nil {
			return nil, fmt.Errorf("core: down-convert %q: %w", ps.Name, err)
		}
		params[i] = soap.Param{Name: ps.Name, Value: v}
	}
	convertIn := time.Since(start)

	resp, err := c.Call(ctx, op, hdr, params...)
	if err != nil {
		return nil, err
	}

	res := &XMLCallResult{Response: resp, ConvertIn: convertIn}
	if resp.Value.Type != nil {
		upStart := time.Now()
		frag, err := xmlenc.Marshal(ResultParam, resp.Value)
		if err != nil {
			return nil, fmt.Errorf("core: up-convert result: %w", err)
		}
		res.ConvertOut = time.Since(upStart)
		res.XML = frag
	}
	return res, nil
}
