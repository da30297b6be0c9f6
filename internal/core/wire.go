package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
)

// WireFormat selects the on-the-wire representation of SOAP messages.
type WireFormat int

const (
	// WireBinary is the SOAP-bin envelope: operation and header metadata
	// in a compact binary frame, parameters as self-describing PBIO
	// messages.
	WireBinary WireFormat = iota + 1
	// WireXML is regular SOAP 1.1: a full XML envelope.
	WireXML
	// WireXMLDeflate is the compressed-XML baseline: a SOAP 1.1 envelope
	// compressed with DEFLATE (Lempel-Ziv, as in the paper).
	WireXMLDeflate
)

// String returns the short name used in benchmark tables.
func (w WireFormat) String() string {
	switch w {
	case WireBinary:
		return "soap-bin"
	case WireXML:
		return "soap-xml"
	case WireXMLDeflate:
		return "soap-xml-deflate"
	default:
		return fmt.Sprintf("wire(%d)", int(w))
	}
}

// ContentType returns the HTTP content type announcing this wire format.
func (w WireFormat) ContentType() string {
	switch w {
	case WireBinary:
		return ContentTypeBinary
	case WireXMLDeflate:
		return ContentTypeXMLDeflate
	default:
		return ContentTypeXML
	}
}

// HTTP content types for the three wire formats.
const (
	ContentTypeXML        = "text/xml; charset=utf-8"
	ContentTypeBinary     = "application/x-soapbin"
	ContentTypeXMLDeflate = "application/x-soap-deflate"
)

// WireFromContentType maps an HTTP content type to its wire format.
func WireFromContentType(ct string) (WireFormat, error) {
	switch ct {
	case ContentTypeBinary:
		return WireBinary, nil
	case ContentTypeXMLDeflate:
		return WireXMLDeflate, nil
	case ContentTypeXML, "text/xml":
		return WireXML, nil
	default:
		return 0, fmt.Errorf("core: unsupported content type %q", ct)
	}
}

// Binary envelope layout (all integers big-endian):
//
//	u8  kind (1 request, 2 response, 3 fault)
//	u16 op length, op bytes
//	u16 header entry count; per entry u16+bytes key, u16+bytes value
//	request/response:
//	  u16 param count; per param u16+bytes name, u32 length, PBIO message
//	fault:
//	  u16+bytes code, u16+bytes string, u16+bytes detail
const (
	frameRequest  = 1
	frameResponse = 2
	frameFault    = 3
)

// binEnvelope is the decoded form of a binary SOAP-bin frame.
type binEnvelope struct {
	Kind   byte
	Op     string
	Header soap.Header
	Params []soap.Param
	Fault  *soap.Fault
}

// marshalBinary encodes a request or response frame. Parameter values are
// encoded as framed PBIO messages, so the receiver can decode them from
// format IDs alone — this is what lets quality management substitute
// smaller message types per invocation without renegotiating the spec.
// The returned buffer comes from the bufpool and is owned by the caller
// (release it with bufpool.Put once the frame is written; see the pool's
// ownership rules). The envelope's exact size is known before the first
// byte is written (binaryEnvelopeSize), so the frame is built in one
// pooled buffer that never grows: the buffer taken is the buffer
// returned. Parameters are encoded in place with AppendMarshal and a
// backpatched length prefix — no per-parameter intermediate buffer.
//
//soaplint:hotpath
func marshalBinary(codec *pbio.Codec, kind byte, op string, hdr soap.Header, params []soap.Param) ([]byte, error) {
	if op == "" {
		return nil, fmt.Errorf("core: binary envelope without operation")
	}
	if len(op) > 0xFFFF {
		return nil, fmt.Errorf("core: operation name too long (%d bytes)", len(op))
	}
	if len(params) > 0xFFFF {
		return nil, fmt.Errorf("core: too many parameters (%d)", len(params))
	}
	size, err := binaryEnvelopeSize(codec, op, hdr, params)
	if err != nil {
		return nil, err
	}
	buf := bufpool.Get(size)
	buf = append(buf, kind)
	buf = appendString16(buf, op)
	buf = appendHeader(buf, hdr)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(params)))
	for _, p := range params {
		buf = appendString16(buf, p.Name)
		buf = append(buf, 0, 0, 0, 0) // message length backpatched below
		at := len(buf)
		out, err := codec.AppendMarshal(buf, p.Value)
		if err != nil {
			bufpool.Put(buf)
			return nil, fmt.Errorf("core: parameter %q: %w", p.Name, err)
		}
		buf = out
		sz := len(buf) - at
		if sz > math.MaxUint32 {
			bufpool.Put(buf)
			return nil, fmt.Errorf("core: parameter %q message too large (%d bytes)", p.Name, sz)
		}
		binary.BigEndian.PutUint32(buf[at-4:at], uint32(sz))
	}
	return buf, nil
}

// binaryEnvelopeSize returns the exact length of the frame marshalBinary
// builds, and rejects what the frame cannot carry: a parameter name over
// the u16 prefix, a value the codec cannot encode.
//
//soaplint:hotpath
func binaryEnvelopeSize(codec *pbio.Codec, op string, hdr soap.Header, params []soap.Param) (int, error) {
	size := 1 + 2 + len(op) + 2 + 2 // kind, op, header count, param count
	for k, v := range hdr {
		size += 2 + len(clip16(k)) + 2 + len(clip16(v))
	}
	for _, p := range params {
		if len(p.Name) > 0xFFFF {
			return 0, fmt.Errorf("core: parameter name too long (%d bytes)", len(p.Name))
		}
		n, err := codec.EncodedSize(p.Value)
		if err != nil {
			return 0, fmt.Errorf("core: parameter %q: %w", p.Name, err)
		}
		size += 2 + len(p.Name) + 4 + pbio.HeaderLen + n
	}
	return size, nil
}

// marshalBinaryFault encodes a fault frame into a pooled buffer the
// caller owns.
func marshalBinaryFault(op string, hdr soap.Header, f *soap.Fault) []byte {
	if op == "" {
		op = "Fault"
	}
	buf := bufpool.Get(128)
	buf = append(buf, frameFault)
	buf = appendString16(buf, op)
	buf = appendHeader(buf, hdr)
	buf = appendString16(buf, clip16(f.Code))
	buf = appendString16(buf, clip16(f.String))
	buf = appendString16(buf, clip16(f.Detail))
	return buf
}

// clip16 truncates strings to the u16 length-prefix limit, applied to the
// free-form strings on the binary wire (fault texts, header entries) so
// oversized application data degrades instead of corrupting the frame.
func clip16(s string) string {
	if len(s) > 0xFFFF {
		return s[:0xFFFF]
	}
	return s
}

// unmarshalBinary decodes any binary frame. Fault frames populate Fault;
// request/response frames populate Params, with each PBIO message decoded
// through the codec's registry (self-describing formats).
func unmarshalBinary(codec *pbio.Codec, data []byte) (*binEnvelope, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("core: empty binary envelope")
	}
	env := &binEnvelope{Kind: data[0]}
	rest := data[1:]
	var err error
	if env.Op, rest, err = readString16(rest); err != nil {
		return nil, fmt.Errorf("core: envelope op: %w", err)
	}
	if env.Header, rest, err = readHeader(rest); err != nil {
		return nil, err
	}
	switch env.Kind {
	case frameFault:
		f := &soap.Fault{}
		if f.Code, rest, err = readString16(rest); err != nil {
			return nil, fmt.Errorf("core: fault code: %w", err)
		}
		if f.String, rest, err = readString16(rest); err != nil {
			return nil, fmt.Errorf("core: fault string: %w", err)
		}
		if f.Detail, rest, err = readString16(rest); err != nil {
			return nil, fmt.Errorf("core: fault detail: %w", err)
		}
		env.Fault = f
	case frameRequest, frameResponse:
		if len(rest) < 2 {
			return nil, fmt.Errorf("core: truncated param count")
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		env.Params = make([]soap.Param, 0, n)
		for i := 0; i < n; i++ {
			var name string
			if name, rest, err = readString16(rest); err != nil {
				return nil, fmt.Errorf("core: param %d name: %w", i, err)
			}
			if len(rest) < 4 {
				return nil, fmt.Errorf("core: param %q: truncated length", name)
			}
			sz := int(binary.BigEndian.Uint32(rest))
			rest = rest[4:]
			if len(rest) < sz {
				return nil, fmt.Errorf("core: param %q: truncated body (%d of %d bytes)", name, len(rest), sz)
			}
			v, err := codec.Unmarshal(rest[:sz])
			if err != nil {
				return nil, fmt.Errorf("core: param %q: %w", name, err)
			}
			rest = rest[sz:]
			env.Params = append(env.Params, soap.Param{Name: name, Value: v})
		}
	default:
		return nil, fmt.Errorf("core: unknown frame kind %d", env.Kind)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing envelope bytes", len(rest))
	}
	return env, nil
}

func appendHeader(buf []byte, hdr soap.Header) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(hdr)))
	for _, k := range sortedHeaderKeys(hdr) {
		// Header entries are protocol metadata (timestamps, attribute
		// values); clip rather than corrupt the frame if an application
		// stuffs something enormous in.
		buf = appendString16(buf, clip16(k))
		buf = appendString16(buf, clip16(hdr[k]))
	}
	return buf
}

func readHeader(b []byte) (soap.Header, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("core: truncated header count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n == 0 {
		return nil, b, nil
	}
	hdr := make(soap.Header, n)
	var err error
	for i := 0; i < n; i++ {
		var k, v string
		if k, b, err = readString16(b); err != nil {
			return nil, nil, fmt.Errorf("core: header key %d: %w", i, err)
		}
		if v, b, err = readString16(b); err != nil {
			return nil, nil, fmt.Errorf("core: header value %q: %w", k, err)
		}
		hdr[k] = v
	}
	return hdr, b, nil
}

func sortedHeaderKeys(h soap.Header) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readString16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("truncated length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("truncated string (%d of %d bytes)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

// findParam returns the named parameter from a decoded list.
func findParam(params []soap.Param, name string) (idl.Value, bool) {
	for _, p := range params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return idl.Value{}, false
}

// RequestOp extracts the operation name of a serialized request without
// decoding it: XML wires carry it as the action, the binary envelope
// embeds it after the frame kind. ok is false when the envelope is too
// mangled to name an operation — the router forwards such requests
// anyway and lets a backend produce the fault.
func RequestOp(contentType, action string, body []byte) (op string, ok bool) {
	if action != "" {
		return action, true
	}
	if contentType != ContentTypeBinary || len(body) < 1 {
		return "", false
	}
	name, _, err := readString16(body[1:])
	if err != nil || name == "" {
		return "", false
	}
	return name, true
}

// SniffFaultCode reports the fault code of a serialized response if it
// is a fault envelope, without a codec or a full decode: the binary
// fault frame's code field sits at a fixed walk past the op and header,
// and XML faults carry a literal <faultcode> element. Deflate bodies are
// not inspected (an inflate per response is not worth it — matching
// isFaultBody). ok is false for non-fault responses.
//
// This is the router's passive fault sniffer: an unavailable-family code
// from a backend (draining, shed, breaker) marks the backend sick and —
// because those faults mean the request was provably not processed —
// makes the attempt safe to fail over regardless of idempotency.
func SniffFaultCode(contentType string, body []byte) (code string, ok bool) {
	switch contentType {
	case ContentTypeBinary:
		if len(body) < 1 || body[0] != frameFault {
			return "", false
		}
		rest := body[1:]
		var err error
		if _, rest, err = readString16(rest); err != nil { // op
			return "", false
		}
		if _, rest, err = readHeader(rest); err != nil {
			return "", false
		}
		if code, _, err = readString16(rest); err != nil {
			return "", false
		}
		return code, true
	case ContentTypeXML, "text/xml":
		i := bytes.Index(body, []byte("<faultcode>"))
		if i < 0 {
			return "", false
		}
		rest := body[i+len("<faultcode>"):]
		j := bytes.IndexByte(rest, '<')
		if j < 0 {
			return "", false
		}
		return string(rest[:j]), true
	default:
		return "", false
	}
}

// FaultEnvelope renders f as a serialized fault response in the wire
// format of contentType (falling back to XML for unknown formats), for
// components that answer on the wire without a Server — the front
// router's own faults (no eligible backend, drained) use it. The body is
// pooled where the format allows; callers may bufpool.Put it once
// written.
func FaultEnvelope(contentType, op string, f *soap.Fault) (respContentType string, respBody []byte) {
	wire := wireOrXML(contentType)
	if wire == WireBinary {
		return ContentTypeBinary, marshalBinaryFault(op, nil, f)
	}
	body, err := soap.MarshalFault(f)
	if err != nil {
		body = []byte(xmlFaultFallback)
	}
	if wire == WireXMLDeflate {
		if z, zerr := Deflate(body); zerr == nil {
			return ContentTypeXMLDeflate, z
		}
	}
	return ContentTypeXML, body
}
