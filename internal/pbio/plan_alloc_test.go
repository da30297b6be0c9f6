package pbio

import (
	"testing"

	"soapbinq/internal/idl"
)

// Allocation gates for the compiled-plan hot path. These are regression
// tests, not benchmarks: testing.AllocsPerRun fails the build the moment
// an encode or decode path regains a steady-state allocation.
//
// Scope matches the plan contract: fixed-size formats (and scalar arrays
// into reused trees) are zero-allocation in both directions; strings are
// excluded (decode must copy — aliasing pooled wire buffers would be a
// correctness bug, and unsafe tricks are banned by the wirewidth lint).

// atomType mirrors the moldyn Atom record: a fixed-size struct of
// int/char/float fields, 33 wire bytes.
func atomType() *idl.Type {
	return idl.Struct("Atom",
		idl.F("id", idl.Int()),
		idl.F("element", idl.Char()),
		idl.F("x", idl.Float()),
		idl.F("y", idl.Float()),
		idl.F("z", idl.Float()),
	)
}

func atomValue() idl.Value {
	return idl.StructV(atomType(),
		idl.IntV(42), idl.CharV('C'),
		idl.FloatV(1.5), idl.FloatV(-2.25), idl.FloatV(3.75),
	)
}

// echoArrayValue mirrors the bench rigs' echo payload: list<int>.
func echoArrayValue(n int) idl.Value {
	elems := make([]idl.Value, n)
	for i := range elems {
		elems[i] = idl.IntV(int64(i) * 7)
	}
	return idl.Value{Type: idl.List(idl.Int()), List: elems}
}

// frameValue mirrors the moldyn Frame shape: struct with two lists of
// fixed-size structs.
func frameValue(atoms, bonds int) idl.Value {
	at := atomType()
	bt := idl.Struct("Bond", idl.F("a", idl.Int()), idl.F("b", idl.Int()))
	av := make([]idl.Value, atoms)
	for i := range av {
		av[i] = idl.StructV(at, idl.IntV(int64(i)), idl.CharV('H'),
			idl.FloatV(float64(i)), idl.FloatV(0), idl.FloatV(1))
	}
	bv := make([]idl.Value, bonds)
	for i := range bv {
		bv[i] = idl.StructV(bt, idl.IntV(int64(i)), idl.IntV(int64(i+1)))
	}
	ft := idl.Struct("Frame",
		idl.F("step", idl.Int()),
		idl.F("atoms", idl.List(at)),
		idl.F("bonds", idl.List(bt)),
	)
	return idl.StructV(ft,
		idl.IntV(9),
		idl.Value{Type: idl.List(at), List: av},
		idl.Value{Type: idl.List(bt), List: bv},
	)
}

// gateAllocs fails the test when fn allocates at steady state.
func gateAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm: format registration, plan compile, first growth
	if allocs := testing.AllocsPerRun(100, fn); allocs > 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
	}
}

func TestEncodeFixedSizeZeroAlloc(t *testing.T) {
	c := NewCodec(NewRegistry(NewMemServer()))
	v := atomValue()
	buf := make([]byte, 0, 256)
	gateAllocs(t, "AppendMarshal(Atom)", func() {
		out, err := c.AppendMarshal(buf[:0], v)
		if err != nil || len(out) != HeaderLen+33 {
			t.Fatalf("encode: %v (%d bytes)", err, len(out))
		}
	})
	gateAllocs(t, "AppendEncodeBody(Atom)", func() {
		out, err := c.AppendEncodeBody(buf[:0], v)
		if err != nil || len(out) != 33 {
			t.Fatalf("encode body: %v (%d bytes)", err, len(out))
		}
	})
}

func TestDecodeFixedSizeZeroAlloc(t *testing.T) {
	c := NewCodec(NewRegistry(NewMemServer()))
	v := atomValue()
	wire, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var into idl.Value
	gateAllocs(t, "UnmarshalInto(Atom)", func() {
		if err := c.UnmarshalInto(&into, wire); err != nil {
			t.Fatal(err)
		}
	})
	if !into.Equal(v) {
		t.Fatal("decoded value differs")
	}
	body := wire[HeaderLen:]
	gateAllocs(t, "DecodeBodyInto(Atom)", func() {
		if err := c.DecodeBodyInto(&into, body, v.Type, false); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEchoArrayZeroAlloc(t *testing.T) {
	c := NewCodec(NewRegistry(NewMemServer()))
	v := echoArrayValue(512)
	buf := make([]byte, 0, 8*512+64)
	gateAllocs(t, "AppendMarshal(list<int> 512)", func() {
		if _, err := c.AppendMarshal(buf[:0], v); err != nil {
			t.Fatal(err)
		}
	})
	wire, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var into idl.Value
	gateAllocs(t, "UnmarshalInto(list<int> 512)", func() {
		if err := c.UnmarshalInto(&into, wire); err != nil {
			t.Fatal(err)
		}
	})
	if !into.Equal(v) {
		t.Fatal("decoded value differs")
	}
}

func TestMoldynFrameZeroAllocSteadyState(t *testing.T) {
	c := NewCodec(NewRegistry(NewMemServer()))
	v := frameValue(64, 48)
	buf := make([]byte, 0, 8<<10)
	gateAllocs(t, "AppendMarshal(Frame)", func() {
		if _, err := c.AppendMarshal(buf[:0], v); err != nil {
			t.Fatal(err)
		}
	})
	wire, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var into idl.Value
	gateAllocs(t, "UnmarshalInto(Frame)", func() {
		if err := c.UnmarshalInto(&into, wire); err != nil {
			t.Fatal(err)
		}
	})
	if !into.Equal(v) {
		t.Fatal("decoded frame differs")
	}
}

// TestBulkArrayZeroAllocSteadyState gates the call path's shape for a
// bulk array (65,536 ints, the top slab class): encode into one buffer of
// the size EncodedSize gives, decode into a fresh tree, Release. The
// buffer never grows and the 6 MiB slab comes back from the pool.
func TestBulkArrayZeroAllocSteadyState(t *testing.T) {
	c := NewCodec(NewRegistry(NewMemServer()))
	v := echoArrayValue(65536)
	size, err := c.EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, HeaderLen+size)
	var wire []byte
	gateAllocs(t, "AppendMarshal(list<int> 65536) into EncodedSize bytes", func() {
		if wire, err = c.AppendMarshal(buf[:0], v); err != nil {
			t.Fatal(err)
		}
	})
	if len(wire) != cap(buf) || &wire[0] != &buf[:1][0] {
		t.Fatalf("encoded %d bytes into a buffer of %d, same buffer: %v", len(wire), cap(buf), &wire[0] == &buf[:1][0])
	}
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops slabs at random; the decode gate is meaningless")
	}
	gateAllocs(t, "Unmarshal+Release(list<int> 65536)", func() {
		got, err := c.Unmarshal(wire)
		if err != nil || len(got.List) != 65536 {
			t.Fatalf("decode: %v (%d elements)", err, len(got.List))
		}
		Release(&got)
	})
}
