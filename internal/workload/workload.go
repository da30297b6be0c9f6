// Package workload synthesizes the two parameter families used throughout
// the paper's microbenchmarks — integer arrays of varying size and nested
// structs of varying depth — plus deterministic pseudo-random values of
// arbitrary types for property tests.
//
// Arrays sit at one end of the marshalling spectrum (pure enumeration);
// nested structs at the other (recursive descent with a tag per level, so
// XML document size grows much faster than the binary encoding).
package workload

import (
	"soapbinq/internal/idl"
)

// IntArrayType returns the list<int> type used by the array benchmarks.
func IntArrayType() *idl.Type { return idl.List(idl.Int()) }

// IntArray builds a deterministic integer array value of n elements.
// Element values follow a small LCG so that compression benchmarks see
// realistic (not constant) data.
func IntArray(n int) idl.Value {
	elems := make([]idl.Value, n)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		// xorshift64 keeps values varied but reproducible.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		elems[i] = idl.IntV(int64(x % 100000))
	}
	return idl.Value{Type: IntArrayType(), List: elems}
}

// NestedStructType builds the business-data type of the given depth: each
// level holds an id, a name, a price, and (below the leaf) a child struct
// plus a small list of line items. Depth 1 is a flat record.
func NestedStructType(depth int) *idl.Type {
	if depth < 1 {
		depth = 1
	}
	item := idl.Struct("LineItem",
		idl.F("sku", idl.StringT()),
		idl.F("qty", idl.Int()),
		idl.F("unit_price", idl.Float()),
	)
	t := idl.Struct(levelName(1),
		idl.F("id", idl.Int()),
		idl.F("name", idl.StringT()),
		idl.F("price", idl.Float()),
		idl.F("flag", idl.Char()),
		idl.F("items", idl.List(item)),
	)
	for d := 2; d <= depth; d++ {
		t = idl.Struct(levelName(d),
			idl.F("id", idl.Int()),
			idl.F("name", idl.StringT()),
			idl.F("price", idl.Float()),
			idl.F("flag", idl.Char()),
			idl.F("items", idl.List(item)),
			idl.F("child", t),
		)
	}
	return t
}

func levelName(d int) string {
	return "Order" + itoa(d)
}

// NestedStruct builds a deterministic value of NestedStructType(depth) with
// itemsPerLevel line items at every level.
func NestedStruct(depth, itemsPerLevel int) idl.Value {
	t := NestedStructType(depth)
	return fillNested(t, depth, itemsPerLevel)
}

func fillNested(t *idl.Type, level, items int) idl.Value {
	itemType := t.Fields[t.FieldIndex("items")].Type.Elem
	list := make([]idl.Value, items)
	for i := 0; i < items; i++ {
		list[i] = idl.StructV(itemType,
			idl.StringV("SKU-"+itoa(level)+"-"+itoa(i)),
			idl.IntV(int64(i+1)),
			idl.FloatV(9.99+float64(level)+float64(i)/10),
		)
	}
	fields := []idl.Value{
		idl.IntV(int64(1000 + level)),
		idl.StringV("order-level-" + itoa(level)),
		idl.FloatV(100.5 * float64(level)),
		idl.CharV(byte('A' + (level % 26))),
		{Type: idl.List(itemType), List: list},
	}
	if ci := t.FieldIndex("child"); ci >= 0 {
		fields = append(fields, fillNested(t.Fields[ci].Type, level-1, items))
	}
	return idl.StructV(t, fields...)
}

// Random produces a deterministic pseudo-random value of type t, seeded by
// seed. It is used by property tests to fuzz codecs without reflection.
func Random(t *idl.Type, seed uint64) idl.Value {
	r := rng(seed)
	return randomValue(t, &r, 0)
}

// RandomList is Random for a list of exactly n elements of type elem:
// Random keeps its lists under eight elements, and the bulk paths (slab
// size classes, envelope sizing) only start at thousands.
func RandomList(elem *idl.Type, n int, seed uint64) idl.Value {
	r := rng(seed)
	elems := make([]idl.Value, n)
	for i := range elems {
		elems[i] = randomValue(elem, &r, 1)
	}
	return idl.Value{Type: idl.List(elem), List: elems}
}

type rngState uint64

func rng(seed uint64) rngState {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return rngState(seed)
}

func (r *rngState) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rngState(x)
	return x
}

func randomValue(t *idl.Type, r *rngState, depth int) idl.Value {
	switch t.Kind {
	case idl.KindInt:
		return idl.IntV(int64(r.next()))
	case idl.KindFloat:
		// Mix of magnitudes, always finite.
		return idl.FloatV(float64(int64(r.next()%2000000)-1000000) / 128.0)
	case idl.KindChar:
		return idl.CharV(byte(r.next()))
	case idl.KindString:
		n := int(r.next() % 24)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.next()%26)
		}
		return idl.StringV(string(b))
	case idl.KindList:
		n := int(r.next() % 8)
		if depth > 4 {
			n = 0
		}
		elems := make([]idl.Value, n)
		for i := range elems {
			elems[i] = randomValue(t.Elem, r, depth+1)
		}
		return idl.Value{Type: t, List: elems}
	case idl.KindStruct:
		fields := make([]idl.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = randomValue(f.Type, r, depth+1)
		}
		return idl.Value{Type: t, Fields: fields}
	default:
		panic("workload: unknown kind " + t.Kind.String())
	}
}

// itoa is a minimal positive-int formatter, avoiding fmt on hot paths.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
