// Package core implements the SOAP-bin protocol layer: clients and
// servers exchanging SOAP envelopes whose parameter data travels as
// PBIO binary (with plain-XML and deflate-compressed-XML wire formats
// as the interoperability and compatibility modes), over pluggable
// transports.
//
// # Invocation path
//
// A Client binds a ServiceSpec (operations, parameter and result
// types) to a Transport and a WireFormat. Client.Call marshals
// parameters, stamps protocol headers (deadline budget, trace ID),
// sends the request through the transport, and decodes the response —
// retrying idempotent operations under a CallPolicy with exponential
// backoff. A Server dispatches decoded envelopes to registered
// HandlerFuncs; the CallCtx carries the request headers, a
// deadline-governed context, and the response-header writer.
//
// # Transports
//
// Loopback (in-process, for tests and benchmarks), HTTPTransport
// (envelopes POSTed to an endpoint), and TCPPoolTransport (up to N
// persistent multiplexed connections with correlation IDs and
// least-loaded checkout; a pool of one is the single-connection
// transport). Server implements http.Handler directly; ServeTCP serves
// the one framed TCP protocol, whose every frame — like the PBIO format
// server's — goes through internal/frame: length checked against a
// bound before the body is allocated, body in a pooled buffer with
// exactly one owner. TCPPoolTransport sends a request a second time
// only when the first copy provably never left, so a non-idempotent
// operation is never executed twice by the transport's own doing.
//
// # Resilience
//
// Each client carries a per-endpoint circuit breaker (ring-window trip
// ratio, cooldown, half-open probes; fast-fails match
// soap.ErrUnavailable), and the server sheds load beyond MaxInFlight
// with a busy fault whose retry-after hint the client's policy honors.
// The failure model and its chaos suite are described in DESIGN.md §8.
//
// # Observability
//
// The package feeds the internal/obs registry: request/error/retry
// counters, wire-stage and size histograms, server in-flight and
// breaker-transition series, and — when tracing is enabled — client
// and server spans correlated by the X-SOAPBinQ-Trace header.
// OPERATIONS.md documents every series and the debug endpoints.
package core
