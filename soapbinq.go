// Package soapbinq is the public API of the SOAP-binQ library: a
// high-performance SOAP implementation that transports parameter data as
// structured binary (PBIO) while keeping XML as the descriptive layer
// (WSDL), plus continuous quality management that adapts message types to
// network conditions per invocation.
//
// It reproduces Seshasayee, Schwan & Widener, "SOAP-binQ:
// High-Performance SOAP with Continuous Quality Management" (ICDCS 2004).
//
// # Layers
//
//   - Types and values: Type/Value (the Soup schema: int, float, char,
//     string, lists, structs).
//   - PBIO: the binary wire format with its format server
//     (registration + caching, receiver-makes-right byte order).
//   - SOAP-bin: Client/Server over three wire formats — binary, plain
//     XML, and deflate-compressed XML — covering the paper's
//     high-performance, interoperability and compatibility modes.
//   - SOAP-binQ: quality files, quality handlers, RTT estimation and the
//     per-invocation message-type selection loop.
//   - WSDL: service description generation/parsing; cmd/wsdlc generates
//     typed Go stubs.
//   - netem: the emulated 100 Mbps / ADSL links with cross-traffic used
//     by the benchmark harness.
//
// See examples/quickstart for a complete client/server program.
package soapbinq

import (
	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/netem"
	"soapbinq/internal/obs"
	"soapbinq/internal/pbio"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
	"soapbinq/internal/wsdl"
)

// ---- type system ----

// Type describes a parameter type; Value is a dynamically typed value.
type (
	Type  = idl.Type
	Field = idl.Field
	Value = idl.Value
)

// Type constructors.
var (
	Int     = idl.Int
	Float   = idl.Float
	Char    = idl.Char
	String  = idl.StringT
	List    = idl.List
	StructT = idl.Struct
	F       = idl.F
)

// Value constructors.
var (
	IntV    = idl.IntV
	FloatV  = idl.FloatV
	CharV   = idl.CharV
	StringV = idl.StringV
	ListV   = idl.ListV
	StructV = idl.StructV
	Zero    = idl.Zero
)

// ---- PBIO ----

// PBIO format machinery: a format server collects format registrations;
// each endpoint's Registry caches them; a Codec encodes and decodes.
type (
	Format          = pbio.Format
	FormatServer    = pbio.Server
	MemFormatServer = pbio.MemServer
	Registry        = pbio.Registry
	Codec           = pbio.Codec
)

var (
	NewMemFormatServer    = pbio.NewMemServer
	NewRegistry           = pbio.NewRegistry
	NewCodec              = pbio.NewCodec
	NewTCPFormatServer    = pbio.NewTCPServer
	NewFormatServerClient = pbio.NewTCPClient
	// HTTP transport for the format protocol: serve a registry from an
	// existing HTTP listener (app servers mount this at /formats) and
	// resolve formats through it from other processes.
	NewFormatServerHandler = pbio.NewHTTPHandler
	NewHTTPFormatClient    = pbio.NewHTTPFormatClient
)

// ---- SOAP-bin protocol ----

type (
	Client      = core.Client
	Server      = core.Server
	ServiceSpec = core.ServiceSpec
	OpDef       = core.OpDef
	Param       = soap.Param
	ParamSpec   = soap.ParamSpec
	Header      = soap.Header
	Fault       = soap.Fault
	WireFormat  = core.WireFormat
	Transport   = core.Transport
	CallCtx     = core.CallCtx
	HandlerFunc = core.HandlerFunc
	Response    = core.Response
	CallStats   = core.CallStats
)

// CallPolicy configures per-client deadlines and retries: Call derives a
// timeout when the caller's context has none, and re-sends idempotent
// operations on transport errors with exponential backoff.
type CallPolicy = core.CallPolicy

// DeadlineHeader is the SOAP header entry carrying a call's remaining
// time budget (milliseconds) from client to server; servers decode it
// into the handler's context and refuse work whose budget is spent.
const DeadlineHeader = soap.DeadlineHeader

// Fault codes for context-governed outcomes: a call that ran out of
// budget or was cancelled surfaces as a Fault with one of these codes,
// and errors.Is matches it against context.DeadlineExceeded /
// context.Canceled.
const (
	FaultCodeClient           = soap.FaultCodeClient
	FaultCodeServer           = soap.FaultCodeServer
	FaultCodeDeadlineExceeded = soap.FaultCodeDeadlineExceeded
	FaultCodeCancelled        = soap.FaultCodeCancelled
	FaultCodeUnavailable      = soap.FaultCodeUnavailable
)

// Wire formats: the SOAP-bin binary envelope, regular XML SOAP, and the
// compressed-XML baseline.
const (
	WireBinary     = core.WireBinary
	WireXML        = core.WireXML
	WireXMLDeflate = core.WireXMLDeflate
)

// MsgTypeHeader is the response header entry naming the quality message
// type a server substituted for the declared result type.
const MsgTypeHeader = core.MsgTypeHeader

var (
	NewServiceSpec  = core.NewServiceSpec
	MustServiceSpec = core.MustServiceSpec
	NewServer       = core.NewServer
	NewClient       = core.NewClient
)

// HTTPTransport posts envelopes to a SOAP endpoint over real HTTP.
type HTTPTransport = core.HTTPTransport

// Loopback is the in-process transport (benchmarks, tests).
type Loopback = core.Loopback

// TCPPoolTransport carries envelopes over a pool of persistent,
// multiplexed raw TCP connections — the low-overhead choice for the
// high-performance mode's internal back-end communications (ServeTCP is
// the server side).
type TCPPoolTransport = core.TCPPoolTransport

var (
	NewTCPPoolTransport = core.NewTCPPoolTransport
	ServeTCP            = core.ServeTCP
)

// ---- SOAP-binQ quality management ----

type (
	QualityPolicy  = quality.Policy
	QualityHandler = quality.Handler
	QualityClient  = quality.Client
	Attributes     = quality.Attributes
	RTTEstimator   = quality.Estimator
	Selector       = quality.Selector
)

// QualityManager owns runtime-redefinable quality state; Repository is
// the runtime handler store; RequestRule configures client-side request
// adaptation.
type (
	QualityManager    = quality.Manager
	QualityRepository = quality.Repository
	RequestRule       = quality.RequestRule
)

var (
	ParseQualityPolicy   = quality.ParsePolicyString
	ParseServicePolicies = quality.ParseServicePoliciesString
	NewQualityClient     = quality.NewClient
	QualityMiddleware    = quality.Middleware
	NewQualityManager    = quality.NewManager
	NewQualityRepository = quality.NewRepository
	XMLQualityHandler    = quality.XMLHandler
	PadRequests          = quality.PadRequests
	NewRTTEstimator      = quality.NewEstimator
	NewSelector          = quality.NewSelector
	Downgrade            = quality.Downgrade
	Upgrade              = quality.Upgrade
)

// ---- WSDL ----

type WSDLDefinitions = wsdl.Definitions

var (
	GenerateWSDL          = wsdl.Generate
	GenerateWSDLWithTypes = wsdl.GenerateWithTypes
	ParseWSDL             = wsdl.Parse
)

// ---- observability ----

// Observability surface (see OPERATIONS.md): metrics are always on
// (pure atomics, allocation-free); invocation tracing and decision
// events are off until ObsSetEnabled(true) or ObsServe, which starts
// the debug mux — Prometheus text at /metrics, live quality JSON at
// /debug/quality, pprof under /debug/pprof/. Mount the handler on an
// operator-only listener; pprof exposes process internals.
type (
	ObsSpan  = obs.Span
	ObsEvent = obs.Event
)

var (
	ObsServe      = obs.Serve
	ObsHandler    = obs.Handler
	ObsSetEnabled = obs.SetEnabled
	ObsEnabled    = obs.Enabled
	ObsSpans      = obs.Spans
	ObsEvents     = obs.Events
)

// ---- network emulation ----

type (
	LinkProfile  = netem.LinkProfile
	CrossTraffic = netem.CrossTraffic
	SimLink      = netem.Sim
)

var (
	LAN100     = netem.LAN100
	ADSL       = netem.ADSL
	NewSimLink = netem.NewSim
)

// Endpoint bundles the pieces a process needs to speak SOAP-bin: a codec
// wired to a format server. Both client and server sides of an
// application construct one; in-process tests can share a single
// MemFormatServer, distributed deployments point at a TCP format server.
type Endpoint struct {
	Codec *Codec
}

// NewEndpoint builds an endpoint against a format server. A nil server
// gets a private in-memory one (single-process use).
func NewEndpoint(fs FormatServer) *Endpoint {
	if fs == nil {
		fs = pbio.NewMemServer()
	}
	return &Endpoint{Codec: pbio.NewCodec(pbio.NewRegistry(fs))}
}

// NewServer builds a SOAP-bin server for a service.
func (e *Endpoint) NewServer(spec *ServiceSpec) *Server {
	return core.NewServer(spec, e.Codec)
}

// NewClient builds a SOAP-bin client over a transport.
func (e *Endpoint) NewClient(spec *ServiceSpec, t Transport, wire WireFormat) *Client {
	return core.NewClient(spec, t, e.Codec, wire)
}
