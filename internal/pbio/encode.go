package pbio

import (
	"encoding/binary"
	"fmt"
	"math"

	"soapbinq/internal/idl"
)

// Wire layout of a PBIO message:
//
//	offset 0..3   magic "PBIO"
//	offset 4      version (1)
//	offset 5      flags: bit0 set → payload is big-endian
//	offset 6..13  format ID, big-endian
//	offset 14..17 payload length, big-endian
//	offset 18..   payload, in the SENDER's byte order
//
// Header fields are always network order; only the payload is in the
// sender's native order, which is what the receiver-makes-right conversion
// operates on.
const (
	headerLen   = 18
	wireVersion = 1

	flagBigEndian = 0x01
)

var magic = [4]byte{'P', 'B', 'I', 'O'}

// HeaderLen is the fixed size of the PBIO message header in bytes.
const HeaderLen = headerLen

// Codec encodes and decodes PBIO messages against a Registry. A Codec is
// bound to a byte order representing its host's native order; production
// code uses the real native order, while tests force mismatched orders to
// exercise receiver-makes-right conversion (the paper's Linux/x86 ↔
// SPARC/SunOS pairing).
//
// Codec is safe for concurrent use.
type Codec struct {
	reg   *Registry
	order appendOrder
	big   bool
}

// appendOrder combines read and append byte-order operations; both
// binary.LittleEndian and binary.BigEndian satisfy it.
type appendOrder interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

// NewCodec returns a codec using the platform-independent default order
// (little-endian, matching the paper's x86 senders).
func NewCodec(reg *Registry) *Codec {
	return NewCodecOrder(reg, binary.LittleEndian)
}

// NewCodecOrder returns a codec that encodes payloads in the given byte
// order, simulating a host of that architecture. Only the two standard
// orders are meaningful; anything whose String() is not "BigEndian" is
// treated as little-endian.
func NewCodecOrder(reg *Registry, order binary.ByteOrder) *Codec {
	if order.String() == binary.BigEndian.String() {
		return &Codec{reg: reg, order: binary.BigEndian, big: true}
	}
	return &Codec{reg: reg, order: binary.LittleEndian}
}

// Registry returns the codec's registry (shared with the transport for
// format pre-registration).
func (c *Codec) Registry() *Registry { return c.reg }

// Marshal encodes a value into a framed PBIO message, registering its
// format on first use.
func (c *Codec) Marshal(v idl.Value) ([]byte, error) {
	return c.AppendMarshal(nil, v)
}

// AppendMarshal is Marshal appending to dst, for buffer reuse on hot paths.
func (c *Codec) AppendMarshal(dst []byte, v idl.Value) ([]byte, error) {
	if v.Type == nil {
		return nil, fmt.Errorf("pbio: marshal untyped value")
	}
	f, err := c.reg.RegisterType(v.Type)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, magic[:]...)
	flags := byte(0)
	if c.big {
		flags |= flagBigEndian
	}
	dst = append(dst, wireVersion, flags)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = append(dst, 0, 0, 0, 0) // payload length backpatched below
	bodyStart := len(dst)
	dst, err = c.encodeValue(dst, &v, f)
	if err != nil {
		return nil, err
	}
	payload := len(dst) - bodyStart
	if payload > math.MaxUint32 {
		return nil, fmt.Errorf("pbio: payload too large (%d bytes)", payload)
	}
	binary.BigEndian.PutUint32(dst[start+14:], uint32(payload))
	return dst, nil
}

// EncodeBody encodes just the payload (no header) of a value, used where an
// outer protocol already carries the format identity.
func (c *Codec) EncodeBody(v idl.Value) ([]byte, error) {
	return c.AppendEncodeBody(nil, v)
}

// AppendEncodeBody is EncodeBody appending to dst, for pooled buffers on
// hot paths.
//
//soaplint:hotpath
func (c *Codec) AppendEncodeBody(dst []byte, v idl.Value) ([]byte, error) {
	if v.Type == nil {
		return nil, fmt.Errorf("pbio: encode untyped value")
	}
	f, err := c.reg.RegisterType(v.Type)
	if err != nil {
		return nil, err
	}
	return c.encodeValue(dst, &v, f)
}

// encodeValue appends v's payload via the format's compiled plan when one
// exists. Types beyond the plan machine, and values that do not match
// their plan, run the dynamic walk — the latter purely to reproduce the
// exact diagnostic the dynamic encoder would have given.
//
//soaplint:hotpath
func (c *Codec) encodeValue(dst []byte, v *idl.Value, f *Format) ([]byte, error) {
	if p := f.Plan(); p != nil {
		out, err := p.AppendEncode(dst, v, c.big)
		if err == nil {
			return out, nil
		}
	}
	return c.appendValue(dst, *v)
}

func (c *Codec) appendValue(dst []byte, v idl.Value) ([]byte, error) {
	switch v.Type.Kind {
	case idl.KindInt:
		return c.order.AppendUint64(dst, uint64(v.Int)), nil
	case idl.KindFloat:
		return c.order.AppendUint64(dst, math.Float64bits(v.Float)), nil
	case idl.KindChar:
		return append(dst, v.Char), nil
	case idl.KindString:
		if len(v.Str) > math.MaxUint32 {
			return nil, fmt.Errorf("pbio: string too long (%d bytes)", len(v.Str))
		}
		dst = c.order.AppendUint32(dst, uint32(len(v.Str)))
		return append(dst, v.Str...), nil
	case idl.KindList:
		dst = c.order.AppendUint32(dst, uint32(len(v.List)))
		var err error
		for i := range v.List {
			e := v.List[i]
			if e.Type == nil || !e.Type.Equal(v.Type.Elem) {
				return nil, fmt.Errorf("pbio: list element %d has type %s, want %s", i, e.Type, v.Type.Elem)
			}
			if dst, err = c.appendValue(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case idl.KindStruct:
		if len(v.Fields) != len(v.Type.Fields) {
			return nil, fmt.Errorf("pbio: struct %s has %d field values, want %d", v.Type.Name, len(v.Fields), len(v.Type.Fields))
		}
		var err error
		for i := range v.Fields {
			fv := v.Fields[i]
			want := v.Type.Fields[i]
			if fv.Type == nil || !fv.Type.Equal(want.Type) {
				return nil, fmt.Errorf("pbio: struct %s field %q has type %s, want %s", v.Type.Name, want.Name, fv.Type, want.Type)
			}
			if dst, err = c.appendValue(dst, fv); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("pbio: cannot encode kind %s", v.Type.Kind)
	}
}

// EncodedSize returns the payload size in bytes v will occupy on the wire
// (header excluded; a framed message is HeaderLen more) — exactly what
// EncodeBody produces, so a caller can take one buffer of the right size
// before encoding. The size comes from the format's compiled plan, which
// looks only at what decides the size (string lengths, list counts): a
// value the encoder would reject can still get a size here. A type beyond
// the plan machine, or a value whose shape the plan cannot walk, is
// encoded by the dynamic walk and measured, which yields the encoder's
// own diagnostic when it cannot be encoded.
//
//soaplint:hotpath
func (c *Codec) EncodedSize(v idl.Value) (int, error) {
	f, err := c.reg.RegisterType(v.Type)
	if err != nil {
		return 0, err
	}
	if p := f.Plan(); p != nil {
		if n, ok := p.EncodedSize(&v); ok {
			return n, nil
		}
	}
	body, err := c.appendValue(nil, v)
	return len(body), err
}
