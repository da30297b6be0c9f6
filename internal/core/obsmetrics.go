package core

import "soapbinq/internal/obs"

// Metric handles for the core layer, registered in the default obs
// registry at package init so every series exists before traffic flows.
// Counters, gauges, and the byte/stage histograms driven from timings
// the code already takes are always on (each record is one or two
// atomic operations and never allocates); the server-side stage
// histograms additionally need clock reads and are only fed while
// obs.Enabled(). OPERATIONS.md documents every series here.
var (
	clientRequests = obs.NewCounter("soapbinq_client_requests_total",
		"client invocations, all outcomes")
	clientErrors = obs.NewCounter("soapbinq_client_errors_total",
		"client invocations that returned an error (served faults included)")
	clientRetries = obs.NewCounter("soapbinq_client_retries_total",
		"attempts re-sent under the call policy (busy-shed and transport retries)")

	wireEncodeNS = obs.NewHistogram("soapbinq_wire_encode_ns",
		"request serialization time, client side")
	wireDecodeNS = obs.NewHistogram("soapbinq_wire_decode_ns",
		"response deserialization time, client side")
	wireRTTNS = obs.NewHistogram("soapbinq_wire_rtt_ns",
		"transport round trip, all attempts of one call")
	wireRequestBytes = obs.NewHistogram("soapbinq_wire_request_bytes",
		"serialized request envelope sizes, client side")
	wireResponseBytes = obs.NewHistogram("soapbinq_wire_response_bytes",
		"serialized response envelope sizes, client side")

	serverRequests = obs.NewCounter("soapbinq_server_requests_total",
		"envelopes processed, fault responses included")
	serverFaults = obs.NewCounter("soapbinq_server_faults_total",
		"fault envelopes produced")
	serverInflight = obs.NewGauge("soapbinq_server_inflight_count",
		"requests currently processing (shed requests never join)")
	serverRequestBytes = obs.NewHistogram("soapbinq_server_request_bytes",
		"request envelope sizes, server side")
	serverResponseBytes = obs.NewHistogram("soapbinq_server_response_bytes",
		"response envelope sizes, server side")
	serverDecodeNS = obs.NewHistogram("soapbinq_server_decode_ns",
		"request decode time, server side; fed only while tracing is enabled")
	serverHandlerNS = obs.NewHistogram("soapbinq_server_handler_ns",
		"handler time, server side; fed only while tracing is enabled")
	serverEncodeNS = obs.NewHistogram("soapbinq_server_encode_ns",
		"response encode time, server side; fed only while tracing is enabled")

	resilienceSheds = obs.NewCounter("soapbinq_resilience_sheds_total",
		"requests refused at the in-flight bound with a busy fault")
	resilienceFastFails = obs.NewCounter("soapbinq_resilience_breaker_fastfails_total",
		"calls refused by an open breaker without a network attempt")
	breakerTransitions = [...]*obs.Counter{
		BreakerClosed: obs.NewCounter("soapbinq_resilience_breaker_transitions_total",
			"breaker state transitions by destination state", obs.L("to", "closed")),
		BreakerOpen: obs.NewCounter("soapbinq_resilience_breaker_transitions_total",
			"breaker state transitions by destination state", obs.L("to", "open")),
		BreakerHalfOpen: obs.NewCounter("soapbinq_resilience_breaker_transitions_total",
			"breaker state transitions by destination state", obs.L("to", "half-open")),
	}

	tcpDials = obs.NewCounter("soapbinq_tcp_dials_total",
		"TCP connections dialed and handshaken (pool connections and probe exchanges)")
	muxConns = obs.NewGauge("soapbinq_tcpmux_conns_count",
		"live multiplexed TCP connections, client side")
	muxInflight = obs.NewGauge("soapbinq_tcpmux_inflight_count",
		"registered, unanswered correlated calls across all mux connections")
	muxConnFailures = obs.NewCounter("soapbinq_tcpmux_conn_failures_total",
		"multiplexed connections torn down on I/O errors or close")
)

// noteBreakerTransition records one breaker state change on the
// transition counters and, when tracing is on, the decision-event ring.
// Callers hold the breaker's mutex; the obs ring has its own lock and
// never calls back into the breaker.
func noteBreakerTransition(from, to BreakerState) {
	if int(to) < len(breakerTransitions) {
		breakerTransitions[to].Inc()
	}
	if obs.Enabled() {
		obs.Emit(obs.Event{Kind: obs.EventBreaker, Side: "client", From: from.String(), To: to.String()})
	}
}
