package quality

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/obs"
	"soapbinq/internal/soap"
)

// Header entries used by the quality protocol.
const (
	// ClientIDHeader identifies the calling client so the server keeps
	// per-client adaptation state (selector, estimator) — two clients on
	// very different links must not share hysteresis.
	ClientIDHeader = "sbq-client"
	// TimestampHeader carries the client's send timestamp (ns); the
	// server echoes it in the response so the client can compute RTT
	// even over transports without better timing.
	TimestampHeader = "sbq-ts"
	// PrepTimeHeader carries the server's data-preparation time (ns),
	// letting the client set the timestamp back by the time the server
	// spent preparing the response, as the paper suggests.
	PrepTimeHeader = "sbq-prep"
	// RTTHeader piggybacks the client's current RTT estimate (ns) on
	// each request so server-side selection agrees with the client.
	RTTHeader = "sbq-rtt"
)

// Client wraps a core.Client with continuous quality management: it
// timestamps requests, folds each response's RTT sample into an estimator,
// piggybacks the estimate to the server, and pads downgraded responses
// back to their full declared type so the application never notices.
type Client struct {
	Inner     *core.Client
	Policy    *Policy
	Estimator *Estimator
	Attrs     *Attributes

	// PadResults controls receiver-side zero-padding of downgraded
	// responses back to the declared result type (on by default via
	// NewClient). Disable to see raw downgraded values.
	PadResults bool

	// requestRules holds per-operation client-side request adaptation
	// (see ConfigureRequest).
	requestRules map[string]*RequestRule

	// id identifies this client to servers for per-client state.
	id string
}

// NewClient wraps a core client with quality management under the given
// policy. The core client is switched into variance-tolerant mode and
// taught to resolve policy type names.
func NewClient(inner *core.Client, policy *Policy) *Client {
	inner.AllowResultVariance = true
	inner.ResolveType = policy.Type
	return &Client{
		Inner:      inner,
		Policy:     policy,
		Estimator:  NewEstimator(DefaultAlpha),
		Attrs:      NewAttributes(),
		PadResults: true,
		id:         nextClientID(),
	}
}

// clientIDCounter numbers quality clients within this process; combined
// with the process start time it gives servers a collision-resistant key.
var clientIDCounter atomic.Int64

var processEpoch = time.Now().UnixNano()

func nextClientID() string {
	return "c" + strconv.FormatInt(processEpoch, 36) + "-" + strconv.FormatInt(clientIDCounter.Add(1), 10)
}

// ID returns the identifier this client presents to servers.
func (q *Client) ID() string { return q.id }

// UpdateAttribute is the paper's update_attribute(): adjust a quality
// attribute at run time (e.g. granularity or sensitivity knobs consumed by
// handlers).
func (q *Client) UpdateAttribute(name string, value float64) {
	q.Attrs.Update(name, value)
}

// SetPolicy redefines the client's quality policy at run time, matching a
// server-side Manager.SetPolicy. The type resolver for downgraded XML
// responses follows the new policy.
func (q *Client) SetPolicy(p *Policy) error {
	if p == nil {
		return fmt.Errorf("quality: nil policy")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	q.Policy = p
	q.Inner.ResolveType = p.Type
	return nil
}

// RTT returns the current smoothed estimate.
func (q *Client) RTT() time.Duration { return q.Estimator.Estimate() }

// Call invokes an operation with quality management around it. The
// context bounds the call exactly as in core.Client.Call; calls that
// time out or are cancelled are excluded from the RTT estimate (their
// duration measures the budget, not the network), so a stalled peer
// cannot skew the adaptation loop.
func (q *Client) Call(ctx context.Context, op string, hdr soap.Header, params ...soap.Param) (*core.Response, error) {
	if hdr == nil {
		hdr = soap.Header{}
	}
	// The span (nil while tracing is off) is created here rather than in
	// core so the quality layer can annotate it with its own decisions;
	// core.Client.Call finds it in the context and fills the stage
	// timings and transport annotations.
	span := obs.NewSpan("client", op, 0)
	if span != nil {
		ctx = obs.WithSpan(ctx, span)
		defer span.Finish()
	}
	sendTime := time.Now()
	hdr[ClientIDHeader] = q.id
	hdr[TimestampHeader] = strconv.FormatInt(sendTime.UnixNano(), 10)
	// Piggyback the fault-penalized estimate: under fault pressure the
	// server must degrade with the client, not against a stale smooth RTT.
	if est := q.Estimator.Effective(); est > 0 {
		hdr[RTTHeader] = strconv.FormatInt(int64(est), 10)
		qualityEstimate.Set(int64(est))
	}

	// Client-side request adaptation: select the request message type
	// just before sending, as the paper's client stubs do.
	params, reqType, err := q.adaptRequest(op, params)
	if err != nil {
		return nil, err
	}
	if reqType != "" {
		hdr[RequestTypeHeader] = reqType
	}

	resp, err := q.Inner.Call(ctx, op, hdr, params...)
	if err != nil {
		// A timed-out or cancelled sample is censored, not a
		// measurement; count the exclusion instead of folding it in.
		// Failures reaching the endpoint also raise fault pressure,
		// degrading subsequent selections (see Estimator.Effective).
		q.Estimator.ObserveFailure(err)
		span.Annotate("", "", q.Estimator.Pressure(), 0)
		return nil, err
	}

	q.observe(resp, sendTime)

	if q.PadResults {
		if err := q.pad(op, resp); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// observe derives this call's RTT sample. Preference order: the
// transport-reported round trip (exact under simulation), else the
// timestamp echo. Server preparation time is subtracted when reported.
func (q *Client) observe(resp *core.Response, sendTime time.Time) {
	sample := resp.Stats.RoundTripTime
	if sample <= 0 {
		if tsStr, ok := resp.Header[TimestampHeader]; ok {
			if ns, err := strconv.ParseInt(tsStr, 10, 64); err == nil {
				sample = time.Since(time.Unix(0, ns))
			}
		} else {
			sample = time.Since(sendTime)
		}
	}
	if prepStr, ok := resp.Header[PrepTimeHeader]; ok {
		if ns, err := strconv.ParseInt(prepStr, 10, 64); err == nil && ns > 0 {
			sample -= time.Duration(ns)
		}
	}
	q.Estimator.Observe(sample)
}

// pad zero-fills a downgraded result back to the declared full type.
func (q *Client) pad(op string, resp *core.Response) error {
	opDef, ok := q.Inner.Spec().Op(op)
	if !ok || opDef.Result == nil || resp.Value.Type == nil {
		return nil
	}
	if resp.Value.Type.Equal(opDef.Result) {
		return nil
	}
	padded, err := Upgrade(resp.Value, opDef.Result)
	if err != nil {
		return fmt.Errorf("quality: pad response: %w", err)
	}
	resp.Value = padded
	return nil
}

// Middleware wraps a core.HandlerFunc with server-side quality management
// for one operation: just before sending, it selects a message type from
// the policy (using the client-informed RTT estimate), applies the type's
// quality handler — or the trivial field-copy — when the selected type
// differs from what the handler produced, stamps the selection on the
// response header, echoes the client timestamp, and reports preparation
// time.
//
// Each wrapped handler owns one Selector (per-operation hysteresis state);
// attrs supplies handler parameters and may be shared with an application
// that updates attributes at run time. attrs may be nil.
//
// For quality management that can be redefined at run time, build a
// Manager and use Manager.Middleware instead; this function is the
// static-policy convenience over it.
func Middleware(policy *Policy, attrs *Attributes, inner core.HandlerFunc) core.HandlerFunc {
	return NewManager(policy, attrs).Middleware(inner)
}

// Middleware wraps a handler with the manager's (swappable) quality
// state. See the package-level Middleware for the per-invocation
// behavior.
func (m *Manager) Middleware(inner core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.CallCtx, params []soap.Param) (idl.Value, error) {
		policy, sel, serverEst := m.snapshot(ctx.RequestHeader[ClientIDHeader])

		// Echo the timestamp for client-side RTT computation.
		if ts, ok := ctx.RequestHeader[TimestampHeader]; ok {
			ctx.SetResponseHeader(TimestampHeader, ts)
		}
		// Fold in the client-informed estimate.
		if rttStr, ok := ctx.RequestHeader[RTTHeader]; ok {
			if ns, err := strconv.ParseInt(rttStr, 10, 64); err == nil && ns >= 0 {
				serverEst.Set(time.Duration(ns))
			}
		}

		prepStart := time.Now()
		full, err := inner(ctx, params)
		if err != nil {
			// Handler failures (deadline expiry under load, unavailable
			// backends) raise this client's fault pressure so the next
			// selection degrades; successes below release it.
			serverEst.ObserveFailure(err)
			return idl.Value{}, err
		}
		serverEst.Relax()

		before := sel.Current()
		eff := serverEst.Effective()
		typeName := sel.Select(eff)
		qualityEstimate.Set(int64(eff))
		if typeName != before {
			// The selector switched types: count the direction and, when
			// tracing is on, emit a decision event correlated to the
			// server span's trace ID.
			degrade := ruleIndex(policy, typeName) > ruleIndex(policy, before)
			if degrade {
				qualityDegradations.Inc()
			} else {
				qualityRestores.Inc()
			}
			if obs.Enabled() {
				kind := obs.EventRestore
				if degrade {
					kind = obs.EventDegrade
				}
				ev := obs.Event{
					Kind:     kind,
					Side:     "server",
					Op:       ctx.Op,
					ClientID: ctx.RequestHeader[ClientIDHeader],
					From:     before,
					To:       typeName,
					Estimate: eff,
					Pressure: serverEst.Pressure(),
				}
				if sp := obs.SpanFrom(ctx.Context()); sp != nil {
					ev.Trace = obs.FormatTraceID(sp.Trace)
				}
				obs.Emit(ev)
			}
		}
		out := full
		target, ok := policy.Types[typeName]
		if ok && full.Type != nil && !full.Type.Equal(target) {
			if h, hasHandler := policy.Handlers[typeName]; hasHandler {
				out, err = h(full, m.attrs.Snapshot())
				if err != nil {
					return idl.Value{}, fmt.Errorf("quality handler for %q: %w", typeName, err)
				}
			} else {
				out, err = Downgrade(full, target)
				if err != nil {
					return idl.Value{}, err
				}
			}
			ctx.SetResponseHeader(core.MsgTypeHeader, typeName)
		}
		ctx.SetResponseHeader(PrepTimeHeader, strconv.FormatInt(int64(time.Since(prepStart)), 10))
		return out, nil
	}
}
