package pbio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"soapbinq/internal/idl"
)

// Compiled codec plans.
//
// The dynamic encoder/decoder in encode.go and decode.go walks the
// idl.Value tree switching on type kinds at every node — correct, but the
// steady-state hot path pays per-field dispatch, per-field bounds checks,
// and (on decode) a fresh allocation for every composite node. A Plan is
// the same traversal compiled once per format at registration time into a
// flat instruction program:
//
//   - Runs of fixed-width fields are coalesced: one opCheck instruction
//     bounds-checks (decode) or reserves capacity for (encode) the whole
//     run, and the field instructions that follow read or write at the
//     precomputed widths with no further checks.
//   - Nested structs flatten into the enclosing program (opDown/opUp move
//     a cursor; they emit no wire bytes, so fixed runs coalesce across
//     struct boundaries).
//   - Variable-length fields (strings, lists) are explicit plan steps;
//     list elements run a sub-plan, with single-scalar element plans
//     (int/float/char arrays — the paper's echo payloads) special-cased
//     into tight loops that bounds-check the whole array once.
//
// Encoding appends into a caller-supplied buffer; decoding writes into a
// caller-supplied value tree, reusing its existing field and element
// slices. For fixed-size formats both directions are zero-allocation at
// steady state, which bench/hotpath.go and plan_alloc_test.go gate with
// testing.AllocsPerRun.
//
// Plans validate exactly what the dynamic walk validates. When a value
// does not match its plan, encoding returns errPlanMismatch and the codec
// re-runs the dynamic path to produce the identical diagnostic; when a
// payload is malformed, decoding likewise defers to the dynamic decoder
// for the error message. Hot paths stay branch-lean, cold paths keep
// byte-identical errors.

// errPlanMismatch reports a value/plan shape disagreement; the codec
// falls back to the dynamic encoder, which produces the precise error.
var errPlanMismatch = errors.New("pbio: value does not match compiled plan")

// errPlanDecode reports malformed payload bytes detected by a plan; the
// codec falls back to the dynamic decoder for the precise error.
var errPlanDecode = errors.New("pbio: payload does not decode under plan")

// maxPlanDepth bounds the opDown cursor stack. Types nested deeper than
// this (beyond anything a bounded descriptor can carry) simply do not
// compile and use the dynamic path.
const maxPlanDepth = 64

// Plan instruction opcodes.
const (
	opCheck  uint8 = iota // bounds-check / reserve n bytes for the following fixed run
	opInt                 // 8-byte integer at field a
	opFloat               // 8-byte float at field a
	opChar                // 1-byte char at field a
	opStr                 // u32 length + bytes at field a
	opList                // u32 count + elements of subs[n] at field a
	opStruct              // validate/provision the current struct value (arity n)
	opDown                // descend the cursor into field a
	opUp                  // ascend the cursor
)

// instr is one plan step. a is the field index in the cursor's struct
// value, or -1 for the cursor value itself. n and typ are per-opcode:
// opCheck uses n as a byte count, opStruct as the arity, opList as the
// sub-plan index; typ carries the declared type the value must match
// (the full list type for opList, the struct type for opStruct, nil for
// scalars — their kind is the opcode).
type instr struct {
	op  uint8
	a   int32
	n   int32
	typ *idl.Type
}

// Plan is a compiled codec program for one type.
type Plan struct {
	typ  *idl.Type
	prog []instr
	subs []*Plan // element plans referenced by opList instructions

	// fixedSize is the exact payload size in bytes when the type contains
	// no strings or lists, else -1. Fixed-size formats are the
	// zero-allocation guarantee's scope.
	fixedSize int
	// minSize bounds hostile list counts (minimum bytes per element).
	minSize int
	// scalar is the type kind when the whole plan is one scalar — the
	// marker opList uses to select its tight array loops.
	scalar idl.Kind

	// fixedBytes is the total of the fixed runs and vars the strings and
	// lists, in wire order: what EncodedSize adds up. Without vars,
	// fixedBytes is fixedSize.
	fixedBytes int
	vars       []sizeVar
}

// Type returns the type the plan encodes.
func (p *Plan) Type() *idl.Type { return p.typ }

// FixedSize returns the exact wire size of the type's payload and true,
// or 0 and false when the type contains variable-length data.
func (p *Plan) FixedSize() (int, bool) {
	if p.fixedSize < 0 {
		return 0, false
	}
	return p.fixedSize, true
}

// sizeVar locates one variable-length node of a plan's type for
// EncodedSize: the field indexes leading to it from the plan's root, and
// for a list its element plan (nil for a string).
type sizeVar struct {
	path []int32
	elem *Plan
}

// EncodedSize returns the exact number of payload bytes AppendEncode
// appends for v. The fixed-width part is a constant of the plan; only the
// strings and lists are visited, and a list of fixed-size elements is its
// count times the element size, so a fixed-size type and a scalar array
// cost no walk. ok is false when v lacks a field on the way to a string
// or list; AppendEncode then rejects v.
//
//soaplint:hotpath
func (p *Plan) EncodedSize(v *idl.Value) (size int, ok bool) {
	size = p.fixedBytes
	for i := range p.vars {
		sv := &p.vars[i]
		x := v
		for _, a := range sv.path {
			if int(a) >= len(x.Fields) {
				return 0, false
			}
			x = &x.Fields[a]
		}
		if sv.elem == nil {
			size += 4 + len(x.Str)
			continue
		}
		size += 4
		if sv.elem.fixedSize >= 0 {
			size += len(x.List) * sv.elem.fixedSize
			continue
		}
		for j := range x.List {
			n, ok := sv.elem.EncodedSize(&x.List[j])
			if !ok {
				return 0, false
			}
			size += n
		}
	}
	return size, true
}

// CompilePlan compiles a type into its codec plan. Types the plan
// machine cannot express (nesting beyond maxPlanDepth) return an error;
// callers fall back to the dynamic codec.
func CompilePlan(t *idl.Type) (*Plan, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("pbio: plan: %w", err)
	}
	c := &planCompiler{}
	if err := c.emit(t, -1, 0); err != nil {
		return nil, err
	}
	c.flushRun()
	p := &Plan{
		typ:       t,
		prog:      c.prog,
		subs:      c.subs,
		fixedSize: -1,
		minSize:   minEncodedSize(t),

		fixedBytes: c.fixedBytes,
		vars:       c.vars,
	}
	if len(p.vars) == 0 {
		p.fixedSize = p.fixedBytes
	}
	if len(p.prog) == 2 && p.prog[0].op == opCheck {
		switch p.prog[1].op {
		case opInt:
			p.scalar = idl.KindInt
		case opFloat:
			p.scalar = idl.KindFloat
		case opChar:
			p.scalar = idl.KindChar
		}
	}
	return p, nil
}

type planCompiler struct {
	prog []instr
	subs []*Plan

	runAt    int // index of the pending opCheck, -1 when no run is open
	runBytes int

	// For EncodedSize: the bytes of every fixed run, the field indexes from
	// the root to the struct being emitted, and the strings and lists met.
	fixedBytes int
	path       []int32
	vars       []sizeVar
}

// fixed accounts size bytes to the open fixed run, opening one if needed.
func (c *planCompiler) fixed(size int) {
	if c.runBytes == 0 {
		c.runAt = len(c.prog)
		c.prog = append(c.prog, instr{op: opCheck})
	}
	c.runBytes += size
	c.fixedBytes += size
}

// variable records the string (elem nil) or list at field for EncodedSize.
func (c *planCompiler) variable(field int, elem *Plan) {
	path := append([]int32(nil), c.path...)
	if field >= 0 {
		path = append(path, int32(field))
	}
	c.vars = append(c.vars, sizeVar{path: path, elem: elem})
}

// flushRun patches the open run's opCheck with its final byte count.
func (c *planCompiler) flushRun() {
	if c.runBytes > 0 {
		c.prog[c.runAt].n = int32(c.runBytes)
		c.runBytes = 0
	}
}

func (c *planCompiler) emit(t *idl.Type, field int, depth int) error {
	if depth > maxPlanDepth-2 {
		return fmt.Errorf("pbio: plan: type nests deeper than %d", maxPlanDepth)
	}
	a := int32(field)
	switch t.Kind {
	case idl.KindInt:
		c.fixed(8)
		c.prog = append(c.prog, instr{op: opInt, a: a})
	case idl.KindFloat:
		c.fixed(8)
		c.prog = append(c.prog, instr{op: opFloat, a: a})
	case idl.KindChar:
		c.fixed(1)
		c.prog = append(c.prog, instr{op: opChar, a: a})
	case idl.KindString:
		c.flushRun()
		c.prog = append(c.prog, instr{op: opStr, a: a})
		c.variable(field, nil)
	case idl.KindList:
		c.flushRun()
		sub, err := CompilePlan(t.Elem)
		if err != nil {
			return err
		}
		c.subs = append(c.subs, sub)
		c.prog = append(c.prog, instr{op: opList, a: a, n: int32(len(c.subs) - 1), typ: t})
		c.variable(field, sub)
	case idl.KindStruct:
		if field >= 0 {
			c.prog = append(c.prog, instr{op: opDown, a: a})
			c.path = append(c.path, a)
			depth++
		}
		c.prog = append(c.prog, instr{op: opStruct, n: int32(len(t.Fields)), typ: t})
		for i, f := range t.Fields {
			if err := c.emit(f.Type, i, depth); err != nil {
				return err
			}
		}
		if field >= 0 {
			c.prog = append(c.prog, instr{op: opUp})
			c.path = c.path[:len(c.path)-1]
		}
	default:
		return fmt.Errorf("pbio: plan: cannot compile kind %s", t.Kind)
	}
	return nil
}

// field resolves an instruction's target value against the cursor.
func field(cur *idl.Value, a int32) *idl.Value {
	if a < 0 {
		return cur
	}
	return &cur.Fields[a]
}

// reserve grows dst's capacity for n more bytes in one step, so the
// run's appends never reallocate individually. Callers that encode into a
// pooled buffer take it at Codec.EncodedSize and never grow here: a
// regrowth would leave the pooled buffer behind without a Put.
func reserve(dst []byte, n int) []byte {
	if need := len(dst) + n; need > cap(dst) {
		//lint:ignore pooledbuf plan growth path for unsized callers (Marshal, tests): one coalesced reallocation per undersized buffer
		grown := make([]byte, len(dst), need+need/2)
		copy(grown, dst)
		return grown
	}
	return dst
}

// AppendEncode encodes v after dst per the plan, in big- or little-endian
// payload order. v must be of the plan's type (the codec guarantees this:
// plans are looked up by the value's own type). On a value/plan shape
// mismatch it returns errPlanMismatch with dst unmodified, and the caller
// re-runs the dynamic encoder for the exact diagnostic.
//
//soaplint:hotpath
func (p *Plan) AppendEncode(dst []byte, v *idl.Value, big bool) ([]byte, error) {
	mark := len(dst)
	out, err := p.appendEncode(dst, v, big)
	if err != nil {
		return dst[:mark], err
	}
	return out, nil
}

//soaplint:hotpath
func (p *Plan) appendEncode(dst []byte, v *idl.Value, big bool) ([]byte, error) {
	var stack [maxPlanDepth]*idl.Value
	sp := 0
	cur := v
	for i := range p.prog {
		in := &p.prog[i]
		switch in.op {
		case opCheck:
			dst = reserve(dst, int(in.n))
		case opInt:
			x := field(cur, in.a)
			if x.Type == nil || x.Type.Kind != idl.KindInt {
				return nil, errPlanMismatch
			}
			dst = appendU64(dst, uint64(x.Int), big)
		case opFloat:
			x := field(cur, in.a)
			if x.Type == nil || x.Type.Kind != idl.KindFloat {
				return nil, errPlanMismatch
			}
			dst = appendU64(dst, math.Float64bits(x.Float), big)
		case opChar:
			x := field(cur, in.a)
			if x.Type == nil || x.Type.Kind != idl.KindChar {
				return nil, errPlanMismatch
			}
			dst = append(dst, x.Char)
		case opStr:
			x := field(cur, in.a)
			if x.Type == nil || x.Type.Kind != idl.KindString {
				return nil, errPlanMismatch
			}
			if len(x.Str) > int(^uint32(0)) {
				return nil, errPlanMismatch
			}
			dst = reserve(dst, 4+len(x.Str))
			dst = appendU32(dst, uint32(len(x.Str)), big)
			dst = append(dst, x.Str...)
		case opList:
			x := field(cur, in.a)
			if x.Type == nil || !x.Type.Equal(in.typ) {
				return nil, errPlanMismatch
			}
			var err error
			if dst, err = p.subs[in.n].appendList(dst, x, big); err != nil {
				return nil, err
			}
		case opStruct:
			if cur.Type == nil || !cur.Type.Equal(in.typ) || len(cur.Fields) != int(in.n) {
				return nil, errPlanMismatch
			}
		case opDown:
			if int(in.a) >= len(cur.Fields) {
				return nil, errPlanMismatch
			}
			stack[sp] = cur
			sp++
			cur = &cur.Fields[in.a]
		case opUp:
			sp--
			cur = stack[sp]
		}
	}
	return dst, nil
}

// appendList encodes a list value whose elements follow this (element)
// plan: count prefix, then elements — scalars through coalesced tight
// loops, composites through the sub-plan program.
//
//soaplint:hotpath
func (p *Plan) appendList(dst []byte, lv *idl.Value, big bool) ([]byte, error) {
	n := len(lv.List)
	if n > int(^uint32(0)) {
		return nil, errPlanMismatch
	}
	dst = appendU32(dst, uint32(n), big)
	switch p.scalar {
	case idl.KindInt:
		dst = reserve(dst, 8*n)
		for i := range lv.List {
			e := &lv.List[i]
			if e.Type == nil || e.Type.Kind != idl.KindInt {
				return nil, errPlanMismatch
			}
			dst = appendU64(dst, uint64(e.Int), big)
		}
		return dst, nil
	case idl.KindFloat:
		dst = reserve(dst, 8*n)
		for i := range lv.List {
			e := &lv.List[i]
			if e.Type == nil || e.Type.Kind != idl.KindFloat {
				return nil, errPlanMismatch
			}
			dst = appendU64(dst, math.Float64bits(e.Float), big)
		}
		return dst, nil
	case idl.KindChar:
		dst = reserve(dst, n)
		for i := range lv.List {
			e := &lv.List[i]
			if e.Type == nil || e.Type.Kind != idl.KindChar {
				return nil, errPlanMismatch
			}
			dst = append(dst, e.Char)
		}
		return dst, nil
	}
	var err error
	for i := range lv.List {
		e := &lv.List[i]
		if e.Type == nil || !e.Type.Equal(p.typ) {
			return nil, errPlanMismatch
		}
		if dst, err = p.appendEncode(dst, e, big); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// planReader is the decode cursor: unchecked reads after opCheck has
// bounds-checked the run.
type planReader struct {
	buf []byte
	pos int
}

func (d *planReader) rem() int { return len(d.buf) - d.pos }

// take returns the next n bytes, which the caller has bounds-checked.
//
//soaplint:hotpath
func (d *planReader) take(n int) []byte {
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

//soaplint:hotpath
func (d *planReader) u64(big bool) uint64 { return readU64(d.take(8), big) }

//soaplint:hotpath
func readU64(b []byte, big bool) uint64 {
	if big {
		return binary.BigEndian.Uint64(b)
	}
	return binary.LittleEndian.Uint64(b)
}

//soaplint:hotpath
func (d *planReader) u32(big bool) uint32 {
	b := d.take(4)
	if big {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// DecodeInto decodes a payload of the plan's type into v, reusing v's
// existing field and element slices when their capacities fit (the
// zero-allocation path for repeated decodes). v's previous contents are
// overwritten; the caller must own v's tree outright. Decoded strings
// copy out of b — v never aliases the payload buffer, so pooled wire
// buffers can be released immediately after decode.
//
// On malformed input it returns errPlanDecode (possibly wrapped); the
// codec then re-runs the dynamic decoder for the precise diagnostic.
//
//soaplint:hotpath
func (p *Plan) DecodeInto(v *idl.Value, b []byte, big bool) error {
	d := planReader{buf: b}
	if err := p.decodeInto(v, &d, big); err != nil {
		return err
	}
	if d.pos != len(b) {
		return fmt.Errorf("%w: %d trailing payload bytes", errPlanDecode, len(b)-d.pos)
	}
	return nil
}

//soaplint:hotpath
func (p *Plan) decodeInto(v *idl.Value, d *planReader, big bool) error {
	var stack [maxPlanDepth]*idl.Value
	sp := 0
	cur := v
	for i := range p.prog {
		in := &p.prog[i]
		switch in.op {
		case opCheck:
			if d.rem() < int(in.n) {
				return errPlanDecode
			}
		case opInt:
			x := field(cur, in.a)
			x.Type = idl.Int()
			x.Int = int64(d.u64(big))
		case opFloat:
			x := field(cur, in.a)
			x.Type = idl.Float()
			x.Float = math.Float64frombits(d.u64(big))
		case opChar:
			x := field(cur, in.a)
			x.Type = idl.Char()
			x.Char = d.buf[d.pos]
			d.pos++
		case opStr:
			if d.rem() < 4 {
				return errPlanDecode
			}
			n := int(d.u32(big))
			if d.rem() < n {
				return errPlanDecode
			}
			x := field(cur, in.a)
			x.Type = idl.StringT()
			x.Str = string(d.buf[d.pos : d.pos+n])
			d.pos += n
		case opList:
			if err := p.subs[in.n].decodeList(field(cur, in.a), in.typ, d, big); err != nil {
				return err
			}
		case opStruct:
			n := int(in.n)
			if cap(cur.Fields) >= n {
				cur.Fields = reuseValues(cur.Fields, n)
			} else {
				cur.Fields = getValues(n)
			}
			cur.Type = in.typ
		case opDown:
			stack[sp] = cur
			sp++
			cur = &cur.Fields[in.a]
		case opUp:
			sp--
			cur = stack[sp]
		}
	}
	return nil
}

// decodeList decodes a count-prefixed list whose elements follow this
// (element) plan into x, reusing x's element slice.
//
//soaplint:hotpath
func (p *Plan) decodeList(x *idl.Value, listType *idl.Type, d *planReader, big bool) error {
	if d.rem() < 4 {
		return errPlanDecode
	}
	n := int(d.u32(big))
	// Guard hostile counts before provisioning: n elements need at least
	// n×minSize further bytes.
	if p.minSize > 0 && n > d.rem()/p.minSize {
		return errPlanDecode
	}
	x.Type = listType
	if cap(x.List) >= n {
		x.List = reuseValues(x.List, n)
	} else {
		x.List = getValues(n)
	}
	// Scalar arrays: one bounds check takes the whole run as a window that
	// shrinks by an element per step, and the element type is loaded once.
	switch p.scalar {
	case idl.KindInt:
		if d.rem() < 8*n {
			return errPlanDecode
		}
		win, t := d.take(8*n), idl.Int()
		for i := range x.List {
			e := &x.List[i]
			e.Type = t
			e.Int = int64(readU64(win, big))
			win = win[8:]
		}
		return nil
	case idl.KindFloat:
		if d.rem() < 8*n {
			return errPlanDecode
		}
		win, t := d.take(8*n), idl.Float()
		for i := range x.List {
			e := &x.List[i]
			e.Type = t
			e.Float = math.Float64frombits(readU64(win, big))
			win = win[8:]
		}
		return nil
	case idl.KindChar:
		if d.rem() < n {
			return errPlanDecode
		}
		win, t := d.take(n), idl.Char()
		for i := range x.List {
			e := &x.List[i]
			e.Type = t
			e.Char = win[i]
		}
		return nil
	}
	for i := range x.List {
		if err := p.decodeInto(&x.List[i], d, big); err != nil {
			return err
		}
	}
	return nil
}

// Byte-order helpers: concrete binary.LittleEndian / binary.BigEndian
// calls behind a bool, so the per-field path has no interface dispatch.

//soaplint:hotpath
func appendU64(dst []byte, x uint64, big bool) []byte {
	if big {
		return binary.BigEndian.AppendUint64(dst, x)
	}
	return binary.LittleEndian.AppendUint64(dst, x)
}

//soaplint:hotpath
func appendU32(dst []byte, x uint32, big bool) []byte {
	if big {
		return binary.BigEndian.AppendUint32(dst, x)
	}
	return binary.LittleEndian.AppendUint32(dst, x)
}
